package fl

import (
	"fmt"

	"feddrl/internal/dataset"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Byzantine fault injection. An AttackModel is a seeded, replayable
// input to the round engines, mirroring how the arrival trace models
// stragglers and dropout: a deterministic, identity-stable subset of
// clients is malicious, and their uploads are corrupted by a pure
// function of (attack seed, round, client id). That keying makes
// corrupted runs bit-identical across worker counts and across the
// eager/virtual/async engines — corruption happens inside the training
// fan-out, but each corrupted update depends only on its own
// coordinates, never on scheduling order.
//
// The zero value (RunConfig.Attack == nil) is bit-for-bit the benign
// path: no membership draws, no extra RNG streams, no reads of the
// upload vectors.

// attackSalt decorrelates the default attack seed from the run seed
// (RunConfig.AttackSeed == 0 resolves to Seed ^ attackSalt), mirroring
// asyncArrivalSalt for arrival traces.
const attackSalt uint64 = 0x9d28f7c14b36e2d1

// attackTraitSalt keys the identity-membership stream: whether client
// id is malicious is a per-identity trait, stable across rounds and
// independent of the per-round corruption streams.
const attackTraitSalt uint64 = 0x3c6ef372fe94f82b

// attackCollusionSalt keys the shared per-round direction colluding
// attackers agree on.
const attackCollusionSalt uint64 = 0x1f83d9abfb41bd6b

// AttackModel corrupts the uploads of a deterministic subset of client
// identities. Implementations must keep Corrupt a pure function of
// (round, id, seed, global, honest update) — no internal state — so
// that runs replay bitwise at any worker count.
type AttackModel interface {
	Name() string
	// Fraction is the malicious fraction of client identities; the
	// engines draw membership per identity from the resolved attack
	// seed, so the same fraction marks the same clients for every
	// attack type.
	Fraction() float64
	// Corrupt rewrites malicious client id's round-round upload in
	// place. seed is the run's resolved attack seed; implementations
	// needing randomness derive it as
	// rng.New(rng.MixSeed(seed, uint64(round), uint64(id))) (or a
	// round-only stream for coordinated attacks). global is the
	// broadcast model the client trained from; it must not be
	// modified.
	Corrupt(round, id int, seed uint64, global []float64, u *Update)
}

// DataAttack is implemented by attacks that poison a client's local
// training data instead of (or in addition to) its upload. The engines
// wrap each malicious client's shard once per cohort, before local
// training, and unwrap it afterwards.
type DataAttack interface {
	// CorruptData returns the poisoned view of a malicious client's
	// shard. It must not modify d.
	CorruptData(d dataset.Data) dataset.Data
}

// ByzantineSet carries the malicious-fraction knob shared by every
// attack; embed it to satisfy the Fraction method.
type ByzantineSet struct {
	// Frac is the fraction of client identities that behave
	// maliciously; 0 disables the attack.
	Frac float64
}

// Fraction implements part of AttackModel.
func (b ByzantineSet) Fraction() float64 { return b.Frac }

// corruptWeights applies an in-place f64 rewrite to whichever width
// the update carries. F32 uploads are widened (exact), corrupted in
// f64, and rounded back once, so both precision modes share one attack
// definition and stay deterministic.
func corruptWeights(u *Update, f func(w []float64)) {
	if u.Weights32 != nil {
		w := tensor.Widen(nil, u.Weights32)
		f(w)
		u.Weights32 = tensor.Quantize(u.Weights32[:0], w)
		return
	}
	f(u.Weights)
}

// SignFlip uploads the negated (optionally rescaled) model: w ←
// −Scale·w. The classic untargeted attack — under plain weighted
// averaging a 20% sign-flip cohort cancels most of the benign
// progress.
type SignFlip struct {
	ByzantineSet
	// Scale rescales the flipped model; 0 means 1 (pure negation).
	Scale float64
}

// Name implements AttackModel.
func (SignFlip) Name() string { return "signflip" }

// Corrupt implements AttackModel.
func (a SignFlip) Corrupt(round, id int, seed uint64, global []float64, u *Update) {
	s := a.Scale
	if s == 0 {
		s = 1
	}
	corruptWeights(u, func(w []float64) {
		for i := range w {
			w[i] = -s * w[i]
		}
	})
}

// GaussianNoise adds i.i.d. N(0, Std²) noise to every coordinate of
// the honest upload, drawn from the per-(round, client) stream.
type GaussianNoise struct {
	ByzantineSet
	// Std is the noise scale; 0 means 1.
	Std float64
}

// Name implements AttackModel.
func (GaussianNoise) Name() string { return "gauss" }

// Corrupt implements AttackModel.
func (a GaussianNoise) Corrupt(round, id int, seed uint64, global []float64, u *Update) {
	std := a.Std
	if std == 0 {
		std = 1
	}
	r := rng.New(rng.MixSeed(seed, uint64(round), uint64(id)))
	corruptWeights(u, func(w []float64) {
		for i := range w {
			w[i] += std * r.Norm()
		}
	})
}

// ModelReplacement boosts the attacker's deviation from the broadcast
// model: w ← g + Boost·(w − g). With a large Boost a single selected
// attacker dominates a weighted mean (the "scaled model replacement"
// of Bagdasaryan et al.), while order-statistic mergers discard it.
type ModelReplacement struct {
	ByzantineSet
	// Boost is the deviation multiplier; 0 means 10.
	Boost float64
}

// Name implements AttackModel.
func (ModelReplacement) Name() string { return "replace" }

// Corrupt implements AttackModel.
func (a ModelReplacement) Corrupt(round, id int, seed uint64, global []float64, u *Update) {
	boost := a.Boost
	if boost == 0 {
		boost = 10
	}
	corruptWeights(u, func(w []float64) {
		for i := range w {
			w[i] = global[i] + boost*(w[i]-global[i])
		}
	})
}

// Colluding makes every malicious client upload the same poisoned
// model g + d, where the direction d is drawn once per round from a
// round-keyed stream all colluders share. Collusion defeats Krum's
// outlier scoring faster than independent noise because the malicious
// uploads corroborate each other.
type Colluding struct {
	ByzantineSet
	// Std scales the shared direction; 0 means 1.
	Std float64
}

// Name implements AttackModel.
func (Colluding) Name() string { return "collude" }

// Corrupt implements AttackModel.
func (a Colluding) Corrupt(round, id int, seed uint64, global []float64, u *Update) {
	std := a.Std
	if std == 0 {
		std = 1
	}
	// Round-keyed (not client-keyed): every colluder re-derives the
	// identical direction, so their uploads agree byte for byte.
	r := rng.New(rng.MixSeed(seed, attackCollusionSalt, uint64(round)))
	corruptWeights(u, func(w []float64) {
		for i := range w {
			w[i] = global[i] + std*r.Norm()
		}
	})
}

// LabelFlip poisons the malicious client's shard at the dataset layer
// (label y → Classes−1−y) and lets local training proceed honestly on
// the flipped data; the upload itself is not touched. The resulting
// gradient poison is subtler than weight-space attacks and survives
// norm-based quarantine.
type LabelFlip struct {
	ByzantineSet
}

// Name implements AttackModel.
func (LabelFlip) Name() string { return "labelflip" }

// Corrupt implements AttackModel as a no-op: the poison enters through
// CorruptData before training.
func (LabelFlip) Corrupt(round, id int, seed uint64, global []float64, u *Update) {}

// CorruptData implements DataAttack.
func (LabelFlip) CorruptData(d dataset.Data) dataset.Data {
	return dataset.FlipLabels(d)
}

// attackRuntime is the engines' resolved view of a configured attack:
// the model, its optional data-poisoning face, and the resolved seed.
// A nil *attackRuntime is the benign path.
type attackRuntime struct {
	model AttackModel
	data  DataAttack
	seed  uint64
}

// newAttackRuntime resolves RunConfig's attack fields. attackSeed 0
// derives the stream from the run seed, so distinct runs get distinct
// attacks by default while explicit seeds allow replaying one attack
// trace against many run seeds.
func newAttackRuntime(model AttackModel, attackSeed, runSeed uint64) *attackRuntime {
	if model == nil {
		return nil
	}
	seed := attackSeed
	if seed == 0 {
		seed = runSeed ^ attackSalt
	}
	da, _ := model.(DataAttack)
	return &attackRuntime{model: model, data: da, seed: seed}
}

// malicious reports whether client identity id is in the attack set: a
// per-identity trait drawn from the resolved seed, stable across
// rounds and engines.
func (a *attackRuntime) malicious(id int) bool {
	if a == nil {
		return false
	}
	frac := a.model.Fraction()
	if frac <= 0 {
		return false
	}
	return rng.New(rng.MixSeed(a.seed, attackTraitSalt, uint64(id))).Float64() < frac
}

// corrupt applies the weight-space attack to one malicious upload.
func (a *attackRuntime) corrupt(round int, global []float64, u *Update) {
	a.model.Corrupt(round, u.ClientID, a.seed, global, u)
}

// ParseAttack resolves a CLI attack name and malicious fraction. The
// empty string and "none" mean no attack (nil model, the byte-identical
// benign path).
func ParseAttack(name string, frac float64) (AttackModel, error) {
	if !(0 <= frac && frac <= 1) {
		return nil, fmt.Errorf("fl: attack fraction %v outside [0, 1]", frac)
	}
	set := ByzantineSet{Frac: frac}
	switch name {
	case "", "none":
		return nil, nil
	case "signflip":
		return SignFlip{ByzantineSet: set}, nil
	case "gauss":
		return GaussianNoise{ByzantineSet: set}, nil
	case "replace":
		return ModelReplacement{ByzantineSet: set}, nil
	case "collude":
		return Colluding{ByzantineSet: set}, nil
	case "labelflip":
		return LabelFlip{ByzantineSet: set}, nil
	}
	return nil, fmt.Errorf("fl: unknown attack %q (valid: none, signflip, gauss, replace, collude, labelflip)", name)
}
