package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestSeriesSetCSVRoundTrip(t *testing.T) {
	ss := NewSeriesSet("round", []float64{0, 1, 2})
	ss.Add("FedAvg", Series{10, 20, 30})
	ss.Add("FedDRL", Series{12, 25, 33})
	var buf bytes.Buffer
	if err := ss.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "round,FedAvg,FedDRL\n0,10,12\n1,20,25\n2,30,33\n"
	if got := buf.String(); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestSeriesSetFile(t *testing.T) {
	ss := NewSeriesSet("k", []float64{4, 8})
	ss.Add("acc", Series{50, 60})
	path := filepath.Join(t.TempDir(), "fig7.csv")
	if err := ss.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "k,acc\n4,50\n8,60\n"; string(got) != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

func TestSeriesSetPanics(t *testing.T) {
	ss := NewSeriesSet("x", []float64{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		ss.Add("bad", Series{1})
	}()
	ss.Add("a", Series{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	ss.Add("a", Series{3, 4})
}
