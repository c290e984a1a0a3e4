package obs

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary, truncated and malformed JSONL to Load and
// runs every Query accessor cmd/tsq drives over whatever loads. The
// only allowed outcomes are an error or a consistent result, never a
// panic.
func FuzzLoad(f *testing.F) {
	var trace bytes.Buffer
	if err := buildTrace().WriteJSONL(&trace); err != nil {
		f.Fatal(err)
	}
	whole := trace.Bytes()
	f.Add(whole)
	for _, cut := range []int{1, len(whole) / 3, len(whole) / 2, len(whole) - 2} {
		f.Add(whole[:cut])
	}
	f.Add([]byte("{\"kind\":\"span-end\",\"span\":7,\"step\":-3}\n{\"kind\":\"span-begin\",\"span\":7,\"step\":9}\n"))
	f.Add([]byte("{\"kind\":\"placement-phase\",\"step\":5}\n{\"kind\":\"span-begin\",\"name\":\"place\",\"step\":9}\n\n"))
	f.Add([]byte("{\"kind\":\"qos-violation\",\"job\":1e30}\n"))
	f.Add([]byte("{\"step\":\"x\"}\n"))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Load(bytes.NewReader(data))
		if err != nil {
			if q != nil {
				t.Fatalf("Load returned both a query and error %v", err)
			}
			return
		}
		total := 0
		for _, kc := range q.Kinds() {
			total += kc.Count
		}
		if total != q.Len() || len(q.Events()) != q.Len() {
			t.Fatalf("kind tally %d, events %d, Len %d disagree", total, len(q.Events()), q.Len())
		}
		h := q.Horizon()
		for _, sp := range q.Spans() {
			sp.Steps(h)
			if sp.Parent >= len(q.Spans()) {
				t.Fatalf("span %d parent index %d out of range", sp.ID, sp.Parent)
			}
		}
		for _, sp := range q.CriticalPath() {
			sp.Steps(h)
		}
		q.Violations(-1)
		q.Violations(1)
		for _, p := range q.PlacementPaths("place") {
			p.Span.Steps(h)
		}
		q.FaultRecoveries()
	})
}
