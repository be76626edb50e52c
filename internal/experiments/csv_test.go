package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// microGetter returns the getter of a fresh microScale store holding
// experiment id's cells at seed, closed at the end of the test.
func microGetter(t *testing.T, id string, seed uint64) (Scale, ArtifactGetter) {
	s := microScale()
	st := newStore(s, nil)
	t.Cleanup(st.close)
	st.prefetch(Registry[id].Jobs(s, seed))
	return s, st.get
}

func TestFigure7And8Series(t *testing.T) {
	s, get := microGetter(t, "figure7", 31)
	ss7 := figure7Series(s, 31, get)["figure7"]
	if ss7.XName != "K" || len(ss7.X) != len(s.KSweep) {
		t.Fatalf("figure7 x axis wrong: %+v", ss7)
	}
	for _, m := range fedMethods {
		if len(ss7.Data[m]) != len(s.KSweep) {
			t.Fatalf("figure7 series %s wrong length", m)
		}
	}
	s, get = microGetter(t, "figure8", 33)
	ss8 := figure8Series(s, 33, get)["figure8"]
	if ss8.XName != "delta" || len(ss8.X) != len(s.Deltas) {
		t.Fatalf("figure8 x axis wrong: %+v", ss8)
	}
}

func TestFigure5Series(t *testing.T) {
	s, get := microGetter(t, "figure5", 35)
	sets := figure5Series(s, 35, get)
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
	s := microScale()
	dir := t.TempDir()
	paths, err := ExportCSV("figure7", s, 37, dir)
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
	// An unsupported id errors before the output directory is created.
	rejected := filepath.Join(dir, "rejected")
	if _, err := ExportCSV("table3", s, 37, rejected); err == nil {
		t.Fatal("unsupported id did not error")
	}
	if _, err := os.Stat(rejected); !os.IsNotExist(err) {
		t.Fatalf("unsupported id created its output directory (stat err %v)", err)
	}
	if _, err := ExportCSV("figure8", s, 37, filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("nested dir export failed: %v", err)
	}
	// figure5's six panel paths come back sorted, in the same order on
	// every call (map iteration order must not leak into the result).
	cache, err := OpenCache(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for i := 0; i < 4; i++ {
		paths, err := ExportCSVCached("figure5", s, 37, filepath.Join(dir, "fig5"), cache)
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
