package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBestAndFinal(t *testing.T) {
	s := Series{0.1, 0.5, 0.3}
	if s.Best() != 0.5 || s.Final() != 0.3 {
		t.Fatalf("best/final = %v/%v", s.Best(), s.Final())
	}
	var empty Series
	if empty.Best() != 0 || empty.Final() != 0 {
		t.Fatal("empty series should report 0")
	}
}

func TestSmoothed(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	sm := s.Smoothed(2)
	want := Series{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(sm[i]-want[i]) > 1e-12 {
			t.Fatalf("smoothed = %v, want %v", sm, want)
		}
	}
	// Window 1 is the identity.
	id := s.Smoothed(1)
	for i := range s {
		if id[i] != s[i] {
			t.Fatal("window-1 smoothing should be identity")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Smoothed(0) did not panic")
		}
	}()
	s.Smoothed(0)
}

func TestSmoothedPreservesMeanProperty(t *testing.T) {
	f := func(vals []float64, wRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := make(Series, len(vals))
		for i, v := range vals {
			s[i] = math.Mod(v, 100)
			if math.IsNaN(s[i]) {
				s[i] = 0
			}
		}
		w := int(wRaw)%5 + 1
		sm := s.Smoothed(w)
		if len(sm) != len(s) {
			return false
		}
		// Smoothing cannot escape the data's range.
		lo, hi := s[0], s[0]
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range sm {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundsToTarget(t *testing.T) {
	s := Series{0.1, 0.4, 0.6, 0.5}
	if got := s.RoundsToTarget(0.5); got != 3 {
		t.Fatalf("rounds to 0.5 = %d, want 3", got)
	}
	if got := s.RoundsToTarget(0.9); got != -1 {
		t.Fatalf("unreachable target = %d, want -1", got)
	}
	if got := s.RoundsToTarget(0.05); got != 1 {
		t.Fatalf("instant target = %d, want 1", got)
	}
}

func TestMeanAndTail(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Tail(2) != 3.5 {
		t.Fatalf("tail(2) = %v", s.Tail(2))
	}
	if s.Tail(10) != 2.5 {
		t.Fatalf("tail beyond length = %v", s.Tail(10))
	}
	if s.Tail(0) != 0 || (Series{}).Tail(3) != 0 {
		t.Fatal("degenerate tails should be 0")
	}
}

func TestRelImprovement(t *testing.T) {
	if got := RelImprovement(72.63, 71.13); math.Abs(got-2.108815) > 1e-3 {
		t.Fatalf("impr = %v", got) // Table 3's impr.(a) example for CIFAR-100 PA
	}
	if RelImprovement(5, 0) != 0 {
		t.Fatal("zero base should yield 0")
	}
	if RelImprovement(90, 100) >= 0 {
		t.Fatal("regression should be negative")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "Demo", Headers: []string{"method", "acc"}}
	tb.AddRow("FedDRL", F(72.63))
	tb.AddRow("FedAvg", F(69.81))
	out := tb.RenderString()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "FedDRL") || !strings.Contains(out, "72.63") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Fatalf("F = %q", F(1.234))
	}
	if Pct(4.049) != "4.05%" {
		t.Fatalf("Pct = %q", Pct(4.049))
	}
	if MeanStd(12.345, 0.678) != "12.35±0.68" {
		t.Fatalf("MeanStd = %q", MeanStd(12.345, 0.678))
	}
}
