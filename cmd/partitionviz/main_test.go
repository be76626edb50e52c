package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPartitionvizAllPartitioners smokes every partitioner name through
// the CLI: each must render an illustration plus a stats line.
func TestPartitionvizAllPartitioners(t *testing.T) {
	for _, part := range []string{"PA", "CE", "CN", "Equal", "Non-equal"} {
		var out, errOut bytes.Buffer
		args := []string{"-dataset", "mnist", "-clients", "6", "-partitions", part, "-seed", "3"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s exited %d: %s", part, code, errOut.String())
		}
		if !strings.Contains(out.String(), "coverage") || !strings.Contains(out.String(), "clusterScore") {
			t.Fatalf("%s output missing stats line:\n%s", part, out.String())
		}
	}
}

func TestPartitionvizMultiplePartitions(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-partitions", "PA,CE,CN", "-clients", "6"}, &out, &errOut); code != 0 {
		t.Fatalf("exited %d: %s", code, errOut.String())
	}
	if got := strings.Count(out.String(), "coverage"); got != 3 {
		t.Fatalf("expected 3 partition blocks, got %d:\n%s", got, out.String())
	}
}

func TestPartitionvizDatasets(t *testing.T) {
	for _, ds := range []string{"fashion", "cifar100"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-dataset", ds, "-partitions", "CE", "-clients", "4"}, &out, &errOut); code != 0 {
			t.Fatalf("%s exited %d: %s", ds, code, errOut.String())
		}
	}
}

// TestPartitionvizBadArgs: every bad argument exits 2 and prints nothing
// to stdout, also when it is not the first partition requested.
func TestPartitionvizBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "imagenet"},
		{"-partitions", "XX"},
		{"-partitions", "PA,XX"},
		{"-bogusflag"},
		{"-clients", "0", "-partitions", "PA"},
		{"-clients", "2", "-partitions", "CE"},
		{"-clients", "2", "-partitions", "PA, CN"},
		{"-delta", "1.5"},
		{"-delta", "NaN", "-partitions", "CE"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Fatalf("args %v printed to stdout:\n%s", args, out.String())
		}
	}
}
