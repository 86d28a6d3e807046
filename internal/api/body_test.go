package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestAppendFloatMatchesEncoder: AppendFloat formats like encoding/json
// across both notations and their cutoffs.
func TestAppendFloatMatchesEncoder(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1 + 0.2, 123.456, 1e-6, 9.99e-7, 1e-7, 1.5e-7,
		1e20, 1e21, 1.2345e21, -1e-9, 1e-300, math.SmallestNonzeroFloat64, math.MaxFloat64,
		0.4127659574468085, 2.5e-10,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%v: got %s, want %s", f, got, want)
		}
	}
}

// TestAppendSearchMatchesEncoder: a spliced search body is the encoder's
// body for the same struct, with and without the optional members.
func TestAppendSearchMatchesEncoder(t *testing.T) {
	type answer struct {
		Root  int    `json:"root"`
		Label string `json:"label"`
	}
	type stats struct {
		N int     `json:"n"`
		D float64 `json:"d"`
	}
	type body struct {
		SearchHead
		Answers []answer `json:"answers"`
		Stats   stats    `json:"stats"`
	}
	for _, b := range []body{
		{SearchHead: SearchHead{QueryID: "q-<1>", Algo: "si-backward", K: 3, Clamped: []string{"k"}, Truncated: true},
			Answers: []answer{{1, "a & b"}, {2, "c "}}, Stats: stats{4, 1.5e-7}},
		{SearchHead: SearchHead{QueryID: "q", Algo: "bidirectional", K: 10}, Answers: []answer{}},
	} {
		answer := func(dst []byte, i int) ([]byte, error) { return AppendJSON(dst, b.Answers[i]) }
		got, err := AppendSearch([]byte("prefix"), &b.SearchHead, len(b.Answers), answer, b.Stats)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("got  %s\nwant prefix%s", got, want)
		}
	}
	if got, _ := AppendOpen(nil, struct {
		A []int `json:"a,omitempty"`
	}{}); string(got) != "{" {
		t.Errorf("empty struct opens as %q, want {", got)
	}
}
