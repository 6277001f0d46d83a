package trace

import (
	"testing"

	"rnuma/internal/addr"
)

func refs(n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = Ref{Page: addr.PageNum(i), Off: uint16(i % 128)}
	}
	return out
}

func TestSliceStream(t *testing.T) {
	s := FromSlice(refs(3))
	for i := 0; i < 3; i++ {
		r, ok := s.Next()
		if !ok || r.Page != addr.PageNum(i) {
			t.Fatalf("ref %d = %+v, ok=%v", i, r, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("stream did not end")
	}
	if _, ok := s.Next(); ok {
		t.Error("ended stream restarted")
	}
}
