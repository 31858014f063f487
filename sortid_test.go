package netcoord

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// checkSortedByID requires sortedByID to order ids exactly as
// slices.SortFunc with strings.Compare does, each entry carried whole.
func checkSortedByID(t *testing.T, ids []string) {
	t.Helper()
	found := make([]RegistryEntry, len(ids))
	for i, id := range ids {
		found[i] = RegistryEntry{ID: id, Seq: uint64(i)}
	}
	want := slices.Clone(ids)
	slices.SortFunc(want, strings.Compare)
	got := sortedByID(found)
	if len(got) != len(want) {
		t.Fatalf("%d entries out of %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i] || ids[got[i].Seq] != got[i].ID {
			t.Fatalf("position %d: %q (entry %d), want %q", i, got[i].ID, got[i].Seq, want[i])
		}
	}
}

// TestSortedByIDMatchesStringsCompare holds the keyed id sort to
// strings.Compare on sets built against it: prefixes shared past one
// and two keys, ids that are prefixes of others, ids that end inside a
// key next to ones that carry NUL bytes there, high bytes, and random
// ids of every length from 0 to 40 over a small alphabet, so that
// every depth of re-keying and the strings.Compare fallback all run.
func TestSortedByIDMatchesStringsCompare(t *testing.T) {
	sets := map[string][]string{
		"empty":     nil,
		"one":       {"node-0000001"},
		"load-gen":  nil,
		"prefixes":  {"", "a", "ab", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefgh\x00\x00", "abcdefgh\x00a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00"},
		"long-runs": nil,
		"bytes":     {"\x00", "\x00\x00", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\x7f", "\x80", "\xff\x00", "\xfe\xff\xff\xff\xff\xff\xff\xff\xff", "z", "\x00\xff"},
	}
	for i := 0; i < 5000; i++ {
		sets["load-gen"] = append(sets["load-gen"], fmt.Sprintf("node-%07d", i*7919%100_000))
	}
	sets["load-gen"] = append(sets["load-gen"], "probe-0")
	shared := strings.Repeat("replica.region-", 2) // past two keys
	for i := 0; i < 600; i++ {
		sets["long-runs"] = append(sets["long-runs"], fmt.Sprintf("%s%d", shared[:i%len(shared)], i%37))
	}
	rng := rand.New(rand.NewPCG(11, 12))
	alphabet := []byte{0, 1, 'a', 'b', 0x7f, 0x80, 0xff}
	for s := 0; s < 40; s++ {
		ids := make([]string, 1+rng.IntN(300))
		stem := make([]byte, rng.IntN(20))
		for j := range stem {
			stem[j] = alphabet[rng.IntN(len(alphabet))]
		}
		for i := range ids {
			p := rng.IntN(len(stem) + 1)
			id := append(slices.Clip(stem[:p]), make([]byte, rng.IntN(41-p))...)
			for j := p; j < len(id); j++ {
				id[j] = alphabet[rng.IntN(len(alphabet))]
			}
			ids[i] = string(id)
		}
		sets[fmt.Sprintf("random-%d", s)] = ids
	}
	for name, ids := range sets {
		t.Run(name, func(t *testing.T) { checkSortedByID(t, ids) })
	}
}

// FuzzSortedByID splits its input at '|' into ids and requires the
// keyed sort to order them as strings.Compare does.
func FuzzSortedByID(f *testing.F) {
	f.Add("b|a|abcdefgh|abcdefghi|abcdefgh\x00|")
	f.Add("node-0000002|node-0000001|probe-0|node-0000010")
	f.Add("\xff\xff\xff\xff\xff\xff\xff\xff\x00|\xff\xff\xff\xff\xff\xff\xff\xff|\x00")
	f.Fuzz(func(t *testing.T, s string) {
		checkSortedByID(t, strings.Split(s, "|"))
	})
}
