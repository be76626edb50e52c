package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"
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
// hash their per-round async metrics.
var pinnedDigests = map[string]string{
	"eager/f64/FedAvg/benign":             "7b7b1ba349aa5d688f2837b72c12bd1de8b89e119830162fc6bd50dec8ce3401",
	"eager/f64/FedAvg/signflip-median":    "339d464804b57d30dd89ae6723ceb7076216fba2a1501daf5498e260a5b80fb8",
	"eager/f64/FedProx/benign":            "a81dcb1028a88d869eda961eb7c77566053624d763172815ef68b1552f2c2717",
	"eager/f64/FedProx/signflip-median":   "5adcf4131286e848021841c2e4a742e76e51829114b58a505ea5c41780c46d66",
	"eager/f64/FedDRL/benign":             "9ed72f7b37026f3ab706880a4873dd8402bd3fabd261c4c324b232450e647081",
	"eager/f64/FedDRL/signflip-median":    "e26a31bb14afeae5020553606d723ab7950bce330163add9be98e526b54e8836",
	"eager/f32/FedAvg/benign":             "7db3ad822ca3643b8c4b5a8e20c22f30daa5055935091f24a8487a1a470a0795",
	"eager/f32/FedAvg/signflip-median":    "9cf4a46ccfe275b9e36126833b77823b3edf61791d281196c73bf90d03fb776a",
	"eager/f32/FedProx/benign":            "a44e764eb0f0a6230b862590b52a7dce3fb4c00bc88259ecba8d538e16c500da",
	"eager/f32/FedProx/signflip-median":   "0a8680b12854b0f33b676835bbdd32f1baf584181c78b59c9318705ae881474c",
	"eager/f32/FedDRL/benign":             "8a8a273a3222edf04d1d4eef468c19709505d24e531d526b2ad86cdf03f95bff",
	"eager/f32/FedDRL/signflip-median":    "f8ed0a33618dedc1ac5111e18027209be8f85f54f5bbaba79a9d2fd8b92df9c9",
	"virtual/f64/FedAvg/benign":           "7b7b1ba349aa5d688f2837b72c12bd1de8b89e119830162fc6bd50dec8ce3401",
	"virtual/f64/FedAvg/signflip-median":  "339d464804b57d30dd89ae6723ceb7076216fba2a1501daf5498e260a5b80fb8",
	"virtual/f64/FedProx/benign":          "a81dcb1028a88d869eda961eb7c77566053624d763172815ef68b1552f2c2717",
	"virtual/f64/FedProx/signflip-median": "5adcf4131286e848021841c2e4a742e76e51829114b58a505ea5c41780c46d66",
	"virtual/f64/FedDRL/benign":           "9ed72f7b37026f3ab706880a4873dd8402bd3fabd261c4c324b232450e647081",
	"virtual/f64/FedDRL/signflip-median":  "e26a31bb14afeae5020553606d723ab7950bce330163add9be98e526b54e8836",
	"virtual/f32/FedAvg/benign":           "7db3ad822ca3643b8c4b5a8e20c22f30daa5055935091f24a8487a1a470a0795",
	"virtual/f32/FedAvg/signflip-median":  "9cf4a46ccfe275b9e36126833b77823b3edf61791d281196c73bf90d03fb776a",
	"virtual/f32/FedProx/benign":          "a44e764eb0f0a6230b862590b52a7dce3fb4c00bc88259ecba8d538e16c500da",
	"virtual/f32/FedProx/signflip-median": "0a8680b12854b0f33b676835bbdd32f1baf584181c78b59c9318705ae881474c",
	"virtual/f32/FedDRL/benign":           "8a8a273a3222edf04d1d4eef468c19709505d24e531d526b2ad86cdf03f95bff",
	"virtual/f32/FedDRL/signflip-median":  "f8ed0a33618dedc1ac5111e18027209be8f85f54f5bbaba79a9d2fd8b92df9c9",
	"async/f64/FedAvg/benign":             "ee33779f6880bd3b5b61078af7fd11cbcd3ce80270c18c58ed44e1cd9b949bf5",
	"async/f64/FedAvg/signflip-median":    "90ff887eb7c13e0004e488e85dc302addb213df7eb5d4a87941be5debb4f7a19",
	"async/f64/FedProx/benign":            "4d76df64475834076ff9d61720d6b1fa5a9a6483ceab43465b608f5e2cff640c",
	"async/f64/FedProx/signflip-median":   "36830a4addaa611ceae6104d3bed3985d506bf35365f4eab1a12a89e54d8680f",
	"async/f64/FedDRL/benign":             "15a7182517d939163654505c1fd9a60228e037ddea199869130d0db0e8812de1",
	"async/f64/FedDRL/signflip-median":    "04e494d2f8f6ce758e23aecdd9420e1be3b64e6a50e64530ca4f504ac40aa186",
	"async/f32/FedAvg/benign":             "a23e70ea988d1e0d99432333a7e264b93f9308d49ac53dacd0a9cb1491aa5e8d",
	"async/f32/FedAvg/signflip-median":    "d448a9ec05bc03d4e73fe6e1f9ee3edd6af509ae5254b5fa0fd7c6c61d2801e3",
	"async/f32/FedProx/benign":            "48017b0dea9ff0c0230a072d67e711c1ab0071fd40c9a1d14515f1f95514ea7a",
	"async/f32/FedProx/signflip-median":   "25394740115a964738661b1eb949bff190578fec9be41c3489f05c1bb6a8126c",
	"async/f32/FedDRL/benign":             "dda4ab574d584ae4269e19555215b0b5a54d97c7d306f8d2fb9fb7e1669ccbab",
	"async/f32/FedDRL/signflip-median":    "c302a3e6d74549ee8f3583db59b1a4237bdba9787493922564c2031e29e360eb",
	"trace/f64/FedAvg/benign":             "10676995d7c6d828be364e8bcf0d6edb4d8995f43e7cf0c15e9c41314ce6d762",
	"trace/f64/FedAvg/signflip-median":    "7e40941cf702bf0c3ee2a2d8d7f2834c04e7ee01beeabcda462dece36a1380df",
	"trace/f64/FedProx/benign":            "93318611b7d70016f6f09986d90e3fe5fcfdf850a0aca481084e543c51d9cabe",
	"trace/f64/FedProx/signflip-median":   "5c43c855d410d5f3e2a39cd55be5345e0271a4379dd2dea062454bc4dff31864",
	"trace/f32/FedAvg/benign":             "3af56ce406f2adc2eb445d2ea327dc6fe1a9e5df2cab7ba3f1b9aaee016502d5",
	"trace/f32/FedAvg/signflip-median":    "98d811fc839fcbffaf8f7e4b11f5ed667e25f7ef9c6605099be90a7df92236e2",
	"trace/f32/FedProx/benign":            "dc5534a21c843397e67a03e75e8d8709c1c1612a103c2a78739bb683d66c476c",
	"trace/f32/FedProx/signflip-median":   "8034916cdfe42bb26203cfea7a5e08507e72258a6211e7ce5607fe003d951e54",
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
// × {benign, 30% sign-flip with the Median merge} at Workers 1 and 4
// and checks each Result digest against its pinned constant.
func TestRunDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which this module never calls", runtime.GOARCH)
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
	}
	for _, eng := range engines {
		for _, prec := range []Precision{F64, F32} {
			for _, aggName := range []string{"FedAvg", "FedProx", "FedDRL"} {
				if eng.name == "trace" && aggName == "FedDRL" {
					// The trace's threshold of 2 cannot meet FedDRL's
					// fixed K.
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
