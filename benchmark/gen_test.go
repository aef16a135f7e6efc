package main

import (
	"bytes"
	"testing"

	"datacell/internal/serve"
)

func slideBytes(seed uint64, stream, slide int) []byte {
	b := newSlideBuf(512)
	return serve.AppendVectors(nil, nil, b.fill(seed, stream, slide, 4096))
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := slideBytes(7, 0, 3), slideBytes(7, 0, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, stream and slide gave different bytes")
	}
	for name, other := range map[string][]byte{
		"seed":   slideBytes(8, 0, 3),
		"stream": slideBytes(7, 1, 3),
		"slide":  slideBytes(7, 0, 4),
	} {
		if bytes.Equal(a, other) {
			t.Errorf("a different %s gave the same bytes", name)
		}
	}
}

func TestGeneratorRanges(t *testing.T) {
	k, v := make([]int64, 10000), make([]int64, 10000)
	fillSlide(1, 0, 0, 64, k, v)
	keys := map[int64]bool{}
	for i := range k {
		if k[i] < 0 || k[i] >= 64 || v[i] < 0 || v[i] >= vRange {
			t.Fatalf("row %d out of range: k=%d v=%d", i, k[i], v[i])
		}
		keys[k[i]] = true
	}
	if len(keys) != 64 {
		t.Errorf("10000 rows hit %d of 64 keys", len(keys))
	}
}
