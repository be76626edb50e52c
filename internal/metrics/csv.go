package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// CSV export: the figure runners render text tables for the terminal,
// and the same data can be exported as CSV for external plotting (the
// paper's figures are line plots; cmd/tables -csv writes one file per
// experiment).

// SeriesSet is a set of named, aligned series over a shared x axis —
// one Figure-5/7/8-style plot.
type SeriesSet struct {
	XName string
	X     []float64
	Names []string
	Data  map[string]Series
}

// NewSeriesSet builds an empty series set over the given x axis.
func NewSeriesSet(xName string, x []float64) *SeriesSet {
	return &SeriesSet{XName: xName, X: x, Data: map[string]Series{}}
}

// Add attaches a named series; its length must match the x axis.
func (ss *SeriesSet) Add(name string, s Series) {
	if len(s) != len(ss.X) {
		panic(fmt.Sprintf("metrics: series %q length %d, x axis %d", name, len(s), len(ss.X)))
	}
	if _, dup := ss.Data[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %q", name))
	}
	ss.Names = append(ss.Names, name)
	ss.Data[name] = s
}

// WriteCSV emits the set as RFC-4180 CSV with a header row.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{ss.XName}, ss.Names...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("metrics: csv header: %w", err)
	}
	for i, x := range ss.X {
		row := make([]string, 0, len(header))
		row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		for _, name := range ss.Names {
			row = append(row, strconv.FormatFloat(ss.Data[name][i], 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("metrics: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the set to a file path.
func (ss *SeriesSet) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: create %s: %w", path, err)
	}
	defer f.Close()
	if err := ss.WriteCSV(f); err != nil {
		return err
	}
	return f.Sync()
}
