package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// microSet computes experiment id's artifact set at microScale and
// seed.
func microSet(t *testing.T, id string, seed uint64) (Scale, *ArtifactSet) {
	s := microScale()
	set, err := RunShardCached(id, s, seed, 1, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, set
}

func TestFigure7And8Series(t *testing.T) {
	s, set := microSet(t, "figure7", 31)
	ss7 := figure7Series(s, 31, set.get)["figure7"]
	if ss7.XName != "K" || len(ss7.X) != len(s.KSweep) {
		t.Fatalf("figure7 x axis wrong: %+v", ss7)
	}
	for _, m := range fedMethods {
		if len(ss7.Data[m]) != len(s.KSweep) {
			t.Fatalf("figure7 series %s wrong length", m)
		}
	}
	s, set = microSet(t, "figure8", 33)
	ss8 := figure8Series(s, 33, set.get)["figure8"]
	if ss8.XName != "delta" || len(ss8.X) != len(s.Deltas) {
		t.Fatalf("figure8 x axis wrong: %+v", ss8)
	}
}

func TestFigure5Series(t *testing.T) {
	s, set := microSet(t, "figure5", 35)
	sets := figure5Series(s, 35, set.get)
	// 2 datasets (cifar, fashion) × 3 partitions.
	if len(sets) != 6 {
		t.Fatalf("figure5 panels = %d, want 6", len(sets))
	}
	for name, ss := range sets {
		if !strings.HasPrefix(name, "figure5-") {
			t.Fatalf("panel name %q", name)
		}
		if len(ss.Names) != 3 {
			t.Fatalf("panel %s has %d series", name, len(ss.Names))
		}
	}
}

func TestExportCSV(t *testing.T) {
	s, set := microSet(t, "figure7", 37)
	dir := t.TempDir()
	paths, err := ExportCSV(s, set, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "K,FedAvg,FedProx,FedDRL\n") {
		t.Fatalf("csv header wrong:\n%s", data)
	}
	// An unsupported experiment errors before the output directory is
	// created.
	rejected := filepath.Join(dir, "rejected")
	if _, err := ExportCSV(s, NewArtifactSet("table3", s, 37, 1), rejected); err == nil {
		t.Fatal("unsupported id did not error")
	}
	if _, err := os.Stat(rejected); !os.IsNotExist(err) {
		t.Fatalf("unsupported id created its output directory (stat err %v)", err)
	}
	_, set8 := microSet(t, "figure8", 37)
	if _, err := ExportCSV(s, set8, filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("nested dir export failed: %v", err)
	}
	// figure5's six panel paths come back sorted, in the same order on
	// every call (map iteration order must not leak into the result).
	_, set5 := microSet(t, "figure5", 37)
	var first []string
	for i := 0; i < 4; i++ {
		paths, err := ExportCSV(s, set5, filepath.Join(dir, "fig5"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 6 || !slices.IsSorted(paths) {
			t.Fatalf("figure5 paths not six sorted files: %v", paths)
		}
		if i == 0 {
			first = paths
		} else if !slices.Equal(paths, first) {
			t.Fatalf("figure5 paths changed order between calls:\n%v\n%v", first, paths)
		}
	}
}
