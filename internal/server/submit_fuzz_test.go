package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzSweepSubmit feeds arbitrary bytes through decodeSweep, the decoder
// and validator behind POST /api/v1/sweeps. Nothing on the path may panic,
// and it runs no simulation: decodeSweep takes no Server, so it cannot
// launch a sweep. An accepted request must carry a finite positive scale and
// a non-zero seed (the defaults are filled in), and its JSON encoding must
// be accepted again and re-encode to the same bytes.
//
// The seed corpus in testdata/fuzz/FuzzSweepSubmit covers an experiment id,
// raw configs and specs sweeps, the rejected bodies (experiment plus raw
// cells, an unknown field) and NaN, negative and zero scales. Run
// the fuzzer with
//
//	go test -run '^$' -fuzz FuzzSweepSubmit -fuzztime 30s ./internal/server
func FuzzSweepSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSweep(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(req.Scale > 0) || math.IsInf(req.Scale, 0) {
			t.Fatalf("accepted scale %v, want finite and > 0\ninput: %s", req.Scale, data)
		}
		if req.Seed == 0 {
			t.Fatalf("accepted seed 0\ninput: %s", data)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v\ninput: %s", err, data)
		}
		back, err := decodeSweep(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\nencoding: %s", err, enc)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("round-tripped request does not marshal: %v\nencoding: %s", err, enc)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("request changed across a round-trip:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
