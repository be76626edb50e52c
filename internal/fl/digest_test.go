package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The pinned-digest gate: every other determinism test compares two
// code paths of the same build, so a change that moves every engine's
// bits together would pass them all. These constants were recorded while
// the synchronous and asynchronous engines were still separate round
// loops, and pin the exact Result of each engine, precision, aggregator
// and attack setting across commits.

// pinnedDigests maps engine/precision/aggregator/attack to the SHA-256
// of the run's non-timing fields (see resultDigest). Eager and virtual
// runs share a digest by the eager≡virtual contract; async runs also
// hash their per-round async metrics. SingleSet ignores the precision,
// attack and merger, so its four keys share one digest.
var pinnedDigests = map[string]string{
	"eager/f64/FedAvg/benign":              "7b7b1ba349aa5d688f2837b72c12bd1de8b89e119830162fc6bd50dec8ce3401",
	"eager/f64/FedAvg/signflip-median":     "339d464804b57d30dd89ae6723ceb7076216fba2a1501daf5498e260a5b80fb8",
	"eager/f64/FedProx/benign":             "a81dcb1028a88d869eda961eb7c77566053624d763172815ef68b1552f2c2717",
	"eager/f64/FedProx/signflip-median":    "5adcf4131286e848021841c2e4a742e76e51829114b58a505ea5c41780c46d66",
	"eager/f64/FedDRL/benign":              "9ed72f7b37026f3ab706880a4873dd8402bd3fabd261c4c324b232450e647081",
	"eager/f64/FedDRL/signflip-median":     "e26a31bb14afeae5020553606d723ab7950bce330163add9be98e526b54e8836",
	"eager/f32/FedAvg/benign":              "7db3ad822ca3643b8c4b5a8e20c22f30daa5055935091f24a8487a1a470a0795",
	"eager/f32/FedAvg/signflip-median":     "9cf4a46ccfe275b9e36126833b77823b3edf61791d281196c73bf90d03fb776a",
	"eager/f32/FedProx/benign":             "a44e764eb0f0a6230b862590b52a7dce3fb4c00bc88259ecba8d538e16c500da",
	"eager/f32/FedProx/signflip-median":    "0a8680b12854b0f33b676835bbdd32f1baf584181c78b59c9318705ae881474c",
	"eager/f32/FedDRL/benign":              "8a8a273a3222edf04d1d4eef468c19709505d24e531d526b2ad86cdf03f95bff",
	"eager/f32/FedDRL/signflip-median":     "f8ed0a33618dedc1ac5111e18027209be8f85f54f5bbaba79a9d2fd8b92df9c9",
	"virtual/f64/FedAvg/benign":            "7b7b1ba349aa5d688f2837b72c12bd1de8b89e119830162fc6bd50dec8ce3401",
	"virtual/f64/FedAvg/signflip-median":   "339d464804b57d30dd89ae6723ceb7076216fba2a1501daf5498e260a5b80fb8",
	"virtual/f64/FedProx/benign":           "a81dcb1028a88d869eda961eb7c77566053624d763172815ef68b1552f2c2717",
	"virtual/f64/FedProx/signflip-median":  "5adcf4131286e848021841c2e4a742e76e51829114b58a505ea5c41780c46d66",
	"virtual/f64/FedDRL/benign":            "9ed72f7b37026f3ab706880a4873dd8402bd3fabd261c4c324b232450e647081",
	"virtual/f64/FedDRL/signflip-median":   "e26a31bb14afeae5020553606d723ab7950bce330163add9be98e526b54e8836",
	"virtual/f32/FedAvg/benign":            "7db3ad822ca3643b8c4b5a8e20c22f30daa5055935091f24a8487a1a470a0795",
	"virtual/f32/FedAvg/signflip-median":   "9cf4a46ccfe275b9e36126833b77823b3edf61791d281196c73bf90d03fb776a",
	"virtual/f32/FedProx/benign":           "a44e764eb0f0a6230b862590b52a7dce3fb4c00bc88259ecba8d538e16c500da",
	"virtual/f32/FedProx/signflip-median":  "0a8680b12854b0f33b676835bbdd32f1baf584181c78b59c9318705ae881474c",
	"virtual/f32/FedDRL/benign":            "8a8a273a3222edf04d1d4eef468c19709505d24e531d526b2ad86cdf03f95bff",
	"virtual/f32/FedDRL/signflip-median":   "f8ed0a33618dedc1ac5111e18027209be8f85f54f5bbaba79a9d2fd8b92df9c9",
	"async/f64/FedAvg/benign":              "ee33779f6880bd3b5b61078af7fd11cbcd3ce80270c18c58ed44e1cd9b949bf5",
	"async/f64/FedAvg/signflip-median":     "90ff887eb7c13e0004e488e85dc302addb213df7eb5d4a87941be5debb4f7a19",
	"async/f64/FedProx/benign":             "4d76df64475834076ff9d61720d6b1fa5a9a6483ceab43465b608f5e2cff640c",
	"async/f64/FedProx/signflip-median":    "36830a4addaa611ceae6104d3bed3985d506bf35365f4eab1a12a89e54d8680f",
	"async/f64/FedDRL/benign":              "15a7182517d939163654505c1fd9a60228e037ddea199869130d0db0e8812de1",
	"async/f64/FedDRL/signflip-median":     "04e494d2f8f6ce758e23aecdd9420e1be3b64e6a50e64530ca4f504ac40aa186",
	"async/f32/FedAvg/benign":              "a23e70ea988d1e0d99432333a7e264b93f9308d49ac53dacd0a9cb1491aa5e8d",
	"async/f32/FedAvg/signflip-median":     "d448a9ec05bc03d4e73fe6e1f9ee3edd6af509ae5254b5fa0fd7c6c61d2801e3",
	"async/f32/FedProx/benign":             "48017b0dea9ff0c0230a072d67e711c1ab0071fd40c9a1d14515f1f95514ea7a",
	"async/f32/FedProx/signflip-median":    "25394740115a964738661b1eb949bff190578fec9be41c3489f05c1bb6a8126c",
	"async/f32/FedDRL/benign":              "dda4ab574d584ae4269e19555215b0b5a54d97c7d306f8d2fb9fb7e1669ccbab",
	"async/f32/FedDRL/signflip-median":     "c302a3e6d74549ee8f3583db59b1a4237bdba9787493922564c2031e29e360eb",
	"trace/f64/FedAvg/benign":              "10676995d7c6d828be364e8bcf0d6edb4d8995f43e7cf0c15e9c41314ce6d762",
	"trace/f64/FedAvg/signflip-median":     "7e40941cf702bf0c3ee2a2d8d7f2834c04e7ee01beeabcda462dece36a1380df",
	"trace/f64/FedProx/benign":             "93318611b7d70016f6f09986d90e3fe5fcfdf850a0aca481084e543c51d9cabe",
	"trace/f64/FedProx/signflip-median":    "5c43c855d410d5f3e2a39cd55be5345e0271a4379dd2dea062454bc4dff31864",
	"trace/f32/FedAvg/benign":              "3af56ce406f2adc2eb445d2ea327dc6fe1a9e5df2cab7ba3f1b9aaee016502d5",
	"trace/f32/FedAvg/signflip-median":     "98d811fc839fcbffaf8f7e4b11f5ed667e25f7ef9c6605099be90a7df92236e2",
	"trace/f32/FedProx/benign":             "dc5534a21c843397e67a03e75e8d8709c1c1612a103c2a78739bb683d66c476c",
	"trace/f32/FedProx/signflip-median":    "8034916cdfe42bb26203cfea7a5e08507e72258a6211e7ce5607fe003d951e54",
	"singleset/f64/FedAvg/benign":          "a24113f7633d1072fc0f5beda746d8b473c02af4de237b995ff4108a8bf5d01a",
	"singleset/f64/FedAvg/signflip-median": "a24113f7633d1072fc0f5beda746d8b473c02af4de237b995ff4108a8bf5d01a",
	"singleset/f32/FedAvg/benign":          "a24113f7633d1072fc0f5beda746d8b473c02af4de237b995ff4108a8bf5d01a",
	"singleset/f32/FedAvg/signflip-median": "a24113f7633d1072fc0f5beda746d8b473c02af4de237b995ff4108a8bf5d01a",
}

// resultDigest hashes every non-timing field of a run record: the final
// weight bits, each RoundMetrics except DecisionTime/AggTime, the
// accuracy series and, for async runs, each AsyncRoundMetrics.
func resultDigest(r *Result, async []AsyncRoundMetrics) string {
	d := digester{h: sha256.New()}
	d.str(r.Method)
	d.int(r.NumParam)
	d.floats(r.Weights)
	d.int(len(r.Rounds))
	for _, m := range r.Rounds {
		d.int(m.Round)
		d.bool(m.Evaluated)
		d.floats([]float64{m.TestAcc, m.TestLoss, m.ClientLossMean, m.ClientLossVar, m.ClientLossMax, m.ClientLossMin})
		d.int(m.Quarantined)
	}
	d.floats(r.Accuracy)
	d.int(len(r.AccRounds))
	for _, v := range r.AccRounds {
		d.int(v)
	}
	d.int(len(async))
	for _, m := range async {
		d.int(m.Round)
		d.float(m.VirtualTime)
		d.int(m.Dispatched)
		d.int(m.Arrived)
		d.int(m.Dropped)
		d.float(m.MeanStaleness)
		d.int(m.MaxStaleness)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// digester writes fixed-width little-endian fields into a hash, every
// variable-length field length-prefixed.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) int(v int)       { d.u64(uint64(v)) }
func (d *digester) float(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digester) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.float(x)
	}
}

// TestRunDigestsPinned runs {Run, RunVirtual, degenerate RunAsync,
// RunAsync on asyncTraceConfig} × {F64, F32} × {FedAvg, FedProx, FedDRL}
// × {benign, 30% sign-flip with the Median merge}, and SingleSet on the
// federation's whole training set under FedAvg's settings, at Workers 1
// and 4 and checks each Result digest against its pinned constant.
func TestRunDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only, and assume a CPU with AVX and FMA: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which math.Exp calls on such a CPU", runtime.GOARCH)
	}
	const seed = 61
	type engineRun func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics)
	engines := []struct {
		name string
		run  engineRun
	}{
		{"eager", func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics) {
			clients, test, _ := detFederation(t, seed)
			return Run(cfg, clients, test, agg), nil
		}},
		{"virtual", func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics) {
			cp, test, _ := detVirtualFederation(t, seed)
			return RunVirtual(cfg, cp, test, agg), nil
		}},
		{"async", func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics) {
			cp, test, _ := detVirtualFederation(t, seed)
			r := mustAsync(RunAsync(AsyncConfig{RunConfig: cfg}, cp, test, agg))
			return r.Result, r.Async
		}},
		{"trace", func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics) {
			cp, test, _ := detVirtualFederation(t, seed)
			r := mustAsync(RunAsync(asyncTraceConfig(cfg), cp, test, agg))
			return r.Result, r.Async
		}},
		{"singleset", func(cfg RunConfig, agg Aggregator) (*Result, []AsyncRoundMetrics) {
			train, test := dataset.Synthesize(dataset.MNISTSim().Scaled(0.12), seed)
			return SingleSet(cfg, train, test), nil
		}},
	}
	for _, eng := range engines {
		for _, prec := range []Precision{F64, F32} {
			for _, aggName := range []string{"FedAvg", "FedProx", "FedDRL"} {
				if eng.name == "trace" && aggName == "FedDRL" {
					// The trace's threshold of 2 cannot meet FedDRL's
					// fixed K.
					continue
				}
				if eng.name == "singleset" && aggName != "FedAvg" {
					// SingleSet has no aggregator to vary.
					continue
				}
				for _, attacked := range []bool{false, true} {
					key := eng.name + "/" + string(prec) + "/" + aggName + "/benign"
					if attacked {
						key = eng.name + "/" + string(prec) + "/" + aggName + "/signflip-median"
					}
					t.Run(key, func(t *testing.T) {
						for _, workers := range []int{1, 4} {
							_, _, cfg := detFederation(t, seed)
							cfg.Precision = prec
							cfg.Workers = workers
							if aggName == "FedProx" {
								cfg.Local.ProxMu = 0.01
							}
							if attacked {
								cfg.Attack = SignFlip{ByzantineSet: ByzantineSet{Frac: 0.3}}
								cfg.AttackSeed = 97
								cfg.Merger = Median{}
							}
							got := resultDigest(eng.run(cfg, detAggregators(cfg.K, seed)[aggName]()))
							if want := pinnedDigests[key]; got != want {
								t.Errorf("Workers=%d: digest %s, pinned %q", workers, got, want)
							}
						}
					})
				}
			}
		}
	}
}

func (d *digester) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d *digester) float32s(v []float32) {
	d.int(len(v))
	for _, x := range v {
		d.u64(uint64(math.Float32bits(x)))
	}
}

// canonicalNaN replaces every NaN in v with the default quiet NaN.
func canonicalNaN[T float32 | float64](v []T) {
	for i, x := range v {
		if x != x {
			v[i] = T(math.NaN())
		}
	}
}

func (d *digester) comm(c CommRound) {
	d.int(c.DownlinkBytes)
	d.int(c.UplinkBytes)
	d.int(c.OverheadBytes)
	d.float(c.OverheadFraction())
}

// pinnedFederatedState maps each federated-state operation and width to
// the SHA-256 of its outputs over the fixed inputs of
// TestFederatedStateDigestPinned. TestRunDigestsPinned reaches only the
// weighted and median merges; these pin the rest across commits.
var pinnedFederatedState = map[string]string{
	"merge/weighted/f64":   "fef770607dd0f697a21a4b4d05be99d62fe4f3efea8390e889dd404e921627bc",
	"merge/weighted/f32":   "031713e20d14cebfffbac13f721a064dda1ac43ee22d1d60aa1969109626e374",
	"merge/median/f64":     "3be59c36e0f2cac1d181726df646debfa668859fe0fbd5639f3e5e5ee3052b3a",
	"merge/median/f32":     "3c240fafe500293c8f85d31d456e89d2962e2e63a9d7f91208613b954f869951",
	"merge/trimmed0.1/f64": "0a436c40ba3ad3afe06ad081391447eb615479384d49d0625857e6482e259ad6",
	"merge/trimmed0.1/f32": "86d89e54474d5103b9b906c6caf096d3953ae1a656a123471e653c0ed4e95567",
	"merge/trimmed0.3/f64": "9e8cd0c288497c7b5f24be96604b25fb88f7ea60d1a0bc2098788f889cbffc98",
	"merge/trimmed0.3/f32": "2e982d0b1c602bc3992f4b6dfc64f91662a0f876e123e64f635c5f2f76115bbb",
	"merge/krum1/f64":      "eeb9a9fae2b7a11630452b702f492d95f2245070a401ab3fd987861ee0c7ee6e",
	"merge/krum1/f32":      "bd787f49d3898389dac1d2171c028b1cb608b35b878c7ee38e257e267a24a913",
	"merge/krum3/f64":      "eeb9a9fae2b7a11630452b702f492d95f2245070a401ab3fd987861ee0c7ee6e",
	"merge/krum3/f32":      "bd787f49d3898389dac1d2171c028b1cb608b35b878c7ee38e257e267a24a913",
	"comm/f64":             "d3b6bed46e85fc33315ef533c37caac764a49635c20f833a5a72713bec134ef0",
	"comm/f32":             "11ac9df4d3587144fdb15b3b18f592365ed5c0a6f29425c18c83007677498cb5",
	"attack/f64":           "09f71b2bad2a22a3d479d2fe5e82c457512288460a533879896ff6de3c6d0062",
	"attack/f32":           "e97f61685b99813acd234a7f88625b6c6113255c5c670531bb21a220ffa65983",
	"quarantine/f64":       "831589b95cffcb9101f909090f10c7460c6bced446d05f7955d21d694b4eff42",
	"quarantine/f32":       "831589b95cffcb9101f909090f10c7460c6bced446d05f7955d21d694b4eff42",
}

// TestFederatedStateDigestPinned hashes every federated-state operation
// at both widths on fixed inputs:
//   - each Merger's Merge and Merge32, with no pool and with 4 lanes, at
//     cohort sizes 3, 8 and 17 and at dims 257 and aggSegment+129
//     (tieCohort for the order statistics, mergeCohort otherwise);
//   - the §5.3 traffic model for FedAvg and FedDRL;
//   - every AttackModel's Corrupt on one fixed update;
//   - the quarantine gate's decisions with a norm ceiling.
//
// Every pinned key must be computed, and every computed key pinned.
func TestFederatedStateDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only, and assume a CPU with AVX and FMA: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which math.Exp calls on such a CPU", runtime.GOARCH)
	}
	pool := engine.New(4)
	defer pool.Close()
	computed := map[string]bool{}
	check := func(key string, hash func(d *digester)) {
		t.Helper()
		computed[key] = true
		d := digester{h: sha256.New()}
		hash(&d)
		got := hex.EncodeToString(d.h.Sum(nil))
		if want, ok := pinnedFederatedState[key]; !ok {
			t.Errorf("%s: digest %s has no pinned constant", key, got)
		} else if got != want {
			t.Errorf("%s: digest %s, pinned %s", key, got, want)
		}
	}

	// An add of two NaNs returns the payload of whichever operand the
	// compiled instruction takes first, and the compiler may commute the
	// add (it does under -race). So the readouts that add tieCohort's
	// NaNs — TrimmedMean, and Median at even k — are hashed with every
	// NaN mapped to one pattern; Median's odd-k readout copies and is
	// hashed exactly.
	always := func(int) bool { return true }
	never := func(int) bool { return false }
	mergers := []struct {
		name     string
		m        Merger
		cohort   func(k, dim int, seed uint64) ([]Update, []float64)
		addsNaNs func(k int) bool
	}{
		{"weighted", WeightedMerge{}, mergeCohort, never},
		{"median", Median{}, tieCohort, func(k int) bool { return k%2 == 0 }},
		{"trimmed0.1", TrimmedMean{Beta: 0.1}, tieCohort, always},
		{"trimmed0.3", TrimmedMean{Beta: 0.3}, tieCohort, always},
		{"krum1", Krum{F: 1}, mergeCohort, never},
		{"krum3", Krum{F: 3}, mergeCohort, never},
	}
	for _, mc := range mergers {
		for _, width := range []string{"f64", "f32"} {
			check("merge/"+mc.name+"/"+width, func(d *digester) {
				for _, k := range []int{3, 8, 17} {
					for _, dim := range []int{257, aggSegment + 129} {
						updates, alpha := mc.cohort(k, dim, uint64(1000*k+dim))
						for _, p := range []*engine.Pool{nil, pool} {
							if width == "f64" {
								out := mc.m.Merge(updates, alpha, p)
								if mc.addsNaNs(k) {
									canonicalNaN(out)
								}
								d.floats(out)
							} else {
								out := mc.m.Merge32(updates, alpha, p)
								if mc.addsNaNs(k) {
									canonicalNaN(out)
								}
								d.float32s(out)
							}
						}
					}
				}
			})
		}
	}

	// The attacks' inputs: a global model on the f32 lattice and an
	// honest update. Three more updates are drawn and discarded so that
	// r reaches the quarantine inputs below in the state their pinned
	// digests were recorded from.
	r := rng.New(29)
	const dim = 257
	global := make([]float64, dim)
	for i := range global {
		global[i] = r.Norm()
	}
	tensor.QuantizeLattice(global)
	var honest []float64
	for u := 0; u < 4; u++ {
		w := make([]float64, dim)
		for i := range w {
			if u < 2 {
				w[i] = global[i] + 0.3*r.Norm()
			} else {
				w[i] = global[i] + float64(r.Intn(5)-2)/4
			}
		}
		if u == 0 {
			honest = w
		}
	}

	drlCfg := core.DefaultConfig(10)
	drlCfg.Hidden = 8
	aggs := []Aggregator{FedAvg{}, NewFedDRL(core.NewAgent(drlCfg))}
	for _, prec := range []Precision{F64, F32} {
		check("comm/"+string(prec), func(d *digester) {
			for _, agg := range aggs {
				for _, wlen := range []int{1, 1000, 100000} {
					for _, k := range []int{0, 1, 10} {
						d.comm(CommPerRoundP(agg, k, wlen, prec))
					}
					for _, da := range [][2]int{{1, 1}, {10, 0}, {10, 7}, {10, 10}} {
						d.comm(CommAsyncRoundP(agg, da[0], da[1], wlen, prec))
					}
				}
			}
		})
	}

	attacks := []AttackModel{
		SignFlip{}, SignFlip{Scale: 2.5},
		GaussianNoise{}, GaussianNoise{Std: 0.1},
		ModelReplacement{}, ModelReplacement{Boost: 3},
		Colluding{}, Colluding{Std: 0.5},
		LabelFlip{},
	}
	for _, width := range []string{"f64", "f32"} {
		check("attack/"+width, func(d *digester) {
			for _, a := range attacks {
				d.str(a.Name())
				u := Update{ClientID: 5, N: 12}
				if width == "f64" {
					u.Weights = append([]float64(nil), honest...)
				} else {
					u.Weights32 = tensor.Quantize(nil, honest)
				}
				a.Corrupt(3, u.ClientID, 97, global, &u)
				d.floats(u.Weights)
				d.float32s(u.Weights32)
			}
		})
	}

	// Quarantine: uploads straddling the norm ceilings, some carrying a
	// NaN or an infinity.
	var screened [][]float64
	for _, scale := range []float64{0.1, 0.5, 1, 1.25, 4} {
		w := make([]float64, 16)
		for i := range w {
			w[i] = scale * r.Norm()
		}
		screened = append(screened, w)
	}
	screened = append(screened, []float64{3, 4}, []float64{3, 4.000001})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := append([]float64(nil), screened[1]...)
		w[7] = bad
		screened = append(screened, w)
	}
	gates := []QuarantineConfig{
		{},
		{MaxNorm: 5},
		{MaxNorm: 2.5},
		{MaxNorm: 5, DisableFiniteCheck: true},
	}
	for _, width := range []string{"f64", "f32"} {
		check("quarantine/"+width, func(d *digester) {
			for _, q := range gates {
				for _, w := range screened {
					u := Update{Weights: w}
					if width == "f32" {
						u = Update{Weights32: tensor.Quantize(nil, w)}
					}
					d.bool(q.reject(&u))
				}
			}
		})
	}
	for key := range pinnedFederatedState {
		if !computed[key] {
			t.Errorf("%s: pinned, but no digest was computed", key)
		}
	}
}
