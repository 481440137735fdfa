package sweepd

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newFuzzCoordinator starts a two-shard coordinator holding a submitted
// three-job sweep with one job already leased, and returns it with that
// lease's ID. The lease TTL is long enough that the reaper never revokes
// anything while an input runs.
func newFuzzCoordinator(tb testing.TB) (*Coordinator, string) {
	tb.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, LeaseTTL: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	client := NewInProcessClient(coord)
	ctx := context.Background()
	req := SweepRequestV1{Meta: "fuzz seed"}
	for i, pol := range []string{"hf-rf", "me", "fcfs"} {
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: pol,
			Spec: JobSpecV1{Mix: "2MEM-1", Policy: pol, Instr: 1000, Seed: 1}})
	}
	if _, err := client.Submit(ctx, req); err != nil {
		coord.Close()
		tb.Fatal(err)
	}
	claim, err := client.Claim(ctx, "seed", 1)
	if err != nil || len(claim.Leases) != 1 {
		coord.Close()
		tb.Fatalf("seed claim = %+v, %v", claim, err)
	}
	return coord, claim.Leases[0].LeaseID
}

// FuzzCoordinatorAPI sends two arbitrary POST bodies, each at the endpoint
// its route byte selects, through Coordinator.Handler() on a freshly seeded
// coordinator. After each request the coordinator must not have panicked or
// answered 5xx, and every admitted task must still be queued, leased or done:
// CacheMisses − Coalesced == QueueDepth + ActiveLeases + Executed + Failed.
func FuzzCoordinatorAPI(f *testing.F) {
	coord, lease := newFuzzCoordinator(f)
	coord.Close()
	seedSpec := `{"mix":"2MEM-1","policy":"hf-rf","instr":1000,"seed":1}`
	seeds := []struct {
		r1    uint8
		body1 string
		r2    uint8
		body2 string
	}{
		{0, `{"jobs":[{"key":"twin","spec":` + seedSpec + `}]}`, 1, `{"worker":"w","max":8}`},
		{0, `{"jobs":[{"key":"a","spec":{"apps":"kk","policy":"me-lreq","instr":5,"seed":9}},` +
			`{"key":"b","spec":{"apps":"kk","policy":"me-lreq","instr":5,"seed":9}}]}`, 1, `{"max":-1}`},
		{0, `{"jobs":[{"key":"a","spec":{"mix":"2MEM-1","policy":"fix:012","instr":1}}]}`, 0, `{"jobs":[]}`},
		{3, `{"completions":[{"lease_id":"` + lease + `","value":{"ok":true}}]}`,
			0, `{"jobs":[{"key":"again","spec":` + seedSpec + `}]}`},
		{3, `{"completions":[{"lease_id":"` + lease + `","err":"boom"},{"lease_id":"` + lease + `","value":1}]}`,
			2, `{"lease_ids":["` + lease + `"]}`},
		{2, `{"lease_ids":["` + lease + `","l9.9","l-1.1","garbage",""]}`, 3, `{"completions":[{"lease_id":"l0.1"}]}`},
		{1, `{"worker":"w","max":2}`, 3, `{"completions":[{"lease_id":"l0.1","value":null},{"lease_id":"l1.1","value":[]}]}`},
		{3, `not json`, 2, `{"lease_ids":null}`},
	}
	for _, s := range seeds {
		f.Add(s.r1, []byte(s.body1), s.r2, []byte(s.body2))
	}
	// A route byte selects one of the POST endpoints modulo their count.
	routes := []string{"sweeps", "claim", "heartbeats", "completes"}
	f.Fuzz(func(t *testing.T, r1 uint8, body1 []byte, r2 uint8, body2 []byte) {
		coord, _ := newFuzzCoordinator(t)
		defer coord.Close()
		for _, in := range []struct {
			route uint8
			body  []byte
		}{{r1, body1}, {r2, body2}} {
			path := "/" + APIVersion + "/" + routes[int(in.route)%len(routes)]
			rec := httptest.NewRecorder()
			coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(in.body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, in.body, rec.Code, rec.Body.Bytes())
			}
			st := coord.Stats()
			admitted := st.CacheMisses - st.Coalesced
			if accounted := st.QueueDepth + st.ActiveLeases + st.Executed + st.Failed; admitted != accounted {
				t.Fatalf("POST %s %q: %d admitted tasks but %d queued+leased+done: %+v",
					path, in.body, admitted, accounted, st)
			}
		}
	})
}
