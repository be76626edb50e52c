package experiments

import (
	"testing"
)

// TestCacheDeterminismMatrix is the cache-correctness acceptance gate:
// for EVERY shardable experiment, four execution strategies must render
// byte-identical output —
//
//	uncached            (the reference)
//	cold cached         (computes, writes records)
//	warm cached         (loads every cell: 0 misses)
//	sharded-then-merged (2 shards against the same cache, merged)
//
// One cache directory is shared across all experiments, which also
// exercises cross-experiment reuse: table3, figure5/6 and headline
// share cells, so later cold runs legitimately start with hits.
func TestCacheDeterminismMatrix(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	for _, name := range shardableNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			want, err := RunCached(name, s, 1, nil)
			if err != nil {
				t.Fatal(err)
			}

			cold, err := OpenCache(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunCached(name, s, 1, cold)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("cold cached %s differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s", name, want, got)
			}

			warm, err := OpenCache(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err = RunCached(name, s, 1, warm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("warm cached %s differs from uncached", name)
			}
			if st := warm.Stats(); st.Misses != 0 || st.Hits == 0 {
				t.Fatalf("warm %s stats %+v, want pure hits", name, st)
			}

			shardCache, err := OpenCache(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			var sets []*ArtifactSet
			for i := 1; i <= 2; i++ {
				set, err := RunShardCached(name, s, 1, 1, i, 2, shardCache)
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, set)
			}
			merged, err := MergeSets(sets)
			if err != nil {
				t.Fatal(err)
			}
			got, err = RenderSet(s, merged)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sharded-then-merged cached %s differs from uncached", name)
			}
			if st := shardCache.Stats(); st.Misses != 0 {
				t.Fatalf("cached shards of %s recomputed %d cells", name, st.Misses)
			}
		})
	}
}

// TestCacheDeterminismSeeds extends the matrix to seed replication:
// a cached -seeds run must match the uncached one byte for byte, and a
// warm repeat must load every replicate.
func TestCacheDeterminismSeeds(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	want, _, err := RunSeedsCached("figure8", s, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunSeedsCached("figure8", s, 1, 2, cold)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("cold cached seeds run differs from uncached")
	}
	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = RunSeedsCached("figure8", s, 1, 2, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("warm cached seeds run differs from uncached")
	}
	if st := warm.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm seeds stats %+v, want pure hits", st)
	}
}
