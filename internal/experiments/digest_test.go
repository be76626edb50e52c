package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The pinned experiment digests: the cache, shard and determinism suites
// compare two runs of one build, so a change that moved every cache
// address, or a rendered digit in every output, would pass them. These
// constants pin, across commits, the rendered output of every registered
// experiment, the seed-replicated renders, every grid's job order and
// the name and bytes of every cache record those runs write.
var pinnedExperimentDigests = map[string]string{
	"cache":                  "baf887141116c5c8368c3c6365cb76e60a5c8095dc8fc439549bb035ead6711f",
	"jobs/async-sync":        "ab32ca0bfe1d2f5013dbd33777c39d57e0da90cc87c50a0a39d06c9822e61ef7",
	"jobs/byzantine":         "8b60d9866ebd9b48b9c81b1ad3efa14de06a04a3e2e2a6e92f6db670fb22e954",
	"jobs/figure10":          "325fe02ad2ffde474feb7a10cc49598bbf8917db817d63d3ade6df6b6a47dba8",
	"jobs/figure5":           "5cb76dc9d18398248dcd0b1e2b9e5903caf715da0b3d475d8daaac83609fdebe",
	"jobs/figure6":           "a8c7ed05fce256f01b56fcdae393e1120796290978cb58fc4298e0ad276fc17e",
	"jobs/figure7":           "275a57078cdf1ac6032254f2f6111b05a8d69a6254fc1fdc696d49c0beffd642",
	"jobs/figure8":           "fab0ec5dbb319b25727fecaf1f0bb83ed217c3cb7bd92265de64bc4eda257a8b",
	"jobs/headline":          "40f78150c5e7d7135b6393923ba417cfc7c966b086e5d02e6a99e78d62d205d2",
	"jobs/table3":            "2e11ed7777d3cf7454ab13f36d782d85f3120dd4ae1d07e3fd6dc7d533ee1f30",
	"jobs/table4":            "37810e2d5e34c99d23eac44a3bb870ba41af106953733fff75e169401668418e",
	"run/ablation-prior":     "1f20c1c6f1aba8faaae7bd9703c95414ae7a3fca515489cb9d56d2631f803484",
	"run/ablation-reward":    "0fc5720699d822b3ada1a4a6c7ce2c3c7d8bd5223f79e967e26d47f6450e761c",
	"run/ablation-statenorm": "ff12071d6e11c53eed780403329e300bdbfc92a1f45e55f5f26283843b95d380",
	"run/ablation-twostage":  "95743fd0fabd1d39c66d07ff0be1c390b5eb1fb4b9cf605711f7c8a1a060dc3e",
	"run/async-sync":         "2e9415ce467367f13ef16a4de6af002102956dcaf7dcc737a6d2614cac21802d",
	"run/byzantine":          "f7d7195b2384d38dd34af3bb0c1bf9ea8817283b4b5ec2be1d3e64785a9100b4",
	"run/comm-overhead":      "c00c3400f6a2cb61bbeda4f3bff2bc7d0ba2f0a73f2cbb2f73bbdf5f253969f7",
	"run/figure10":           "8aa00f96ad7baf9c8c9487fc0273c447bf545f11d597fac4c276138699f905d0",
	"run/figure4":            "c702c3777f7fdedab3a00f5d8e4caa44066635a5cbdd3700c9a09006b1c61c49",
	"run/figure5":            "ed658bc316c42575685fb0f4a7118155f8782be1374b095863c02014ca1af4d9",
	"run/figure6":            "68f05678cd6fa4024833e01867e4652e6c097d1440c210b4de4ac22be855274e",
	"run/figure7":            "7ced2857a057d3d78d4c0bf045a91144ba1157b0e1fe37bf1dc4f812dc4159c2",
	"run/figure8":            "1706f15146b80b218ec9654d0d8ce3f2380837ae53156f9a0f5ec09b2697ac91",
	"run/figure9":            "4fe84233a726a6f6fa84cb3644f2b46980f41e9675a0ca77d1950d38e248503d",
	"run/headline":           "f31551f351278ceeddd72e600eea36e6fc94811770c463d3dfad94a7ebfe3687",
	"run/table2":             "5b1cfa39948b2445d1fd03b9c2f0ac8eebbb36ea6396b598c3cbb4db6ad84872",
	"run/table3":             "00e574b8fa98ae288508744a120d6f9640cf4ecb80afb1b6895f876f4abcfa75",
	"run/table4":             "c4d5456a969fffed4b247c273bafaf5ac4886c6a399a8989a0e76d295b4e08f3",
	"seeds/figure7":          "62d3da8a115db233bd1c8718c3571ace24045faed85b48efa8a9f81e0ba34368",
	"seeds/figure8":          "fa2ef3915c2813a6108f1d190e83b1b094b469ed43ee1b769a26db7df130b96f",
	"seeds/table3":           "b8d80aa1dcc9bb2bfa1ef27eae31f54dd816615b2e684f8d6d5024569d4970e9",
}

// digestScale is CI with two rounds: every experiment, including the
// monolithic ablations and the two-stage trainer, runs in seconds.
func digestScale() Scale {
	s := CI()
	s.Rounds = 2
	return s
}

// digestSeedsIDs are the experiments with a seed-replicated render.
var digestSeedsIDs = []string{"table3", "figure7", "figure8"}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// withoutTimingColumns cuts figure9's table before its "DRL decision"
// column. The two timing columns are the only text any experiment
// prints that is not a pure function of its configuration; the model
// and parameter-count columns before them keep their widths.
func withoutTimingColumns(out string) string {
	lines := strings.Split(out, "\n")
	cut := -1
	for i, l := range lines {
		if cut < 0 {
			cut = strings.Index(l, "DRL decision")
		}
		if cut < 0 {
			continue
		}
		if l == "" {
			break
		}
		lines[i] = strings.TrimRight(l[:min(cut, len(l))], " ")
	}
	return strings.Join(lines, "\n")
}

// cacheDigest hashes every file name in dir, in name order, with its
// length and bytes.
func cacheDigest(t *testing.T, dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var n [8]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// experimentDigests runs every registered experiment, then the
// seed-replicated renders, through one shared cache and returns the
// digest of each output ("run/<id>", "seeds/<id>"), of each grid's
// ordered job keys ("jobs/<id>") and of the cache directory ("cache").
func experimentDigests(t *testing.T) map[string]string {
	s := digestScale()
	dir := t.TempDir()
	cache, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, id := range Names() {
		out, err := RunCached(id, s, 1, cache)
		if err != nil {
			t.Fatal(err)
		}
		if id == "figure9" {
			out = withoutTimingColumns(out)
		}
		got["run/"+id] = hashString(out)
		if e := Registry[id]; e.Jobs != nil {
			var keys []string
			for _, spec := range e.Jobs(s, 1) {
				keys = append(keys, spec.Key())
			}
			got["jobs/"+id] = hashString(strings.Join(keys, "\n"))
		}
	}
	for _, id := range digestSeedsIDs {
		out, _, err := RunSeedsCached(id, s, 1, 2, cache)
		if err != nil {
			t.Fatal(err)
		}
		got["seeds/"+id] = hashString(out)
	}
	got["cache"] = cacheDigest(t, dir)
	return got
}

// TestExperimentDigestsPinned checks every experiment digest against its
// pinned constant, and that no digest is missing or extra.
func TestExperimentDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only, and assume a CPU with AVX and FMA: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which math.Exp calls on such a CPU", runtime.GOARCH)
	}
	got := experimentDigests(t)
	for name, want := range pinnedExperimentDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want)
		}
	}
	for name, d := range got {
		if _, ok := pinnedExperimentDigests[name]; !ok {
			t.Errorf("%s: digest %s has no pinned constant", name, d)
		}
	}
}
