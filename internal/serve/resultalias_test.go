package serve

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// scrapeMetrics fetches /metrics and returns the raw exposition text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestResultCacheProfilesDoNotAlias is the NReg-normalization regression:
// byte-identical thread bodies submitted under different hardware
// profiles (explicit nreg 32, explicit nreg 48, and nreg omitted — the
// server default) are distinct requests and must never serve each
// other's cached result. Each profile is posted twice, so the second
// round is answered from the completed-flight LRU — the exact path a
// normalization bug would corrupt.
func TestResultCacheProfilesDoNotAlias(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	threads := `"threads":[{"progen":{"seed":9,"shape":"nearcollision"}}]`
	profiles := []struct {
		body string
		nreg int
	}{
		{fmt.Sprintf(`{"nreg":32,%s}`, threads), 32},
		{fmt.Sprintf(`{"nreg":48,%s}`, threads), 48},
		{fmt.Sprintf(`{%s}`, threads), 128}, // omitted: server default
	}
	for round := 0; round < 2; round++ {
		for i, p := range profiles {
			out := mustOK(t, ts.URL, p.body)
			if out.NReg != p.nreg {
				t.Fatalf("round %d profile %d: nreg = %d, want %d (cross-profile aliasing)", round, i, out.NReg, p.nreg)
			}
			if out.SGR > p.nreg {
				t.Fatalf("round %d profile %d: sgr %d exceeds the register file %d", round, i, out.SGR, p.nreg)
			}
			if cached := round == 1; out.Cached != cached {
				t.Errorf("round %d profile %d: cached = %v, want %v", round, i, out.Cached, cached)
			}
		}
	}
	if b := s.Metrics().Batches; b != 3 {
		t.Errorf("engine batches = %d, want 3 (one per profile)", b)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		"npserve_singleflight_cached_hits 3",
		"npserve_singleflight_misses 3",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestRespelledRepeatIsCached pins the property the request path leans
// on now that the canonical key is a request's only identity: the same
// request spelled differently — reordered fields, extra whitespace, a
// different timeout_ms, nreg omitted instead of set to the server
// default — is answered from the completed-flight LRU without a second
// engine run.
func TestRespelledRepeatIsCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	first := mustOK(t, ts.URL,
		`{"nreg":128,"timeout_ms":5000,"threads":[{"progen":{"seed":11,"shape":"palette"}},{"progen":{"seed":12}}]}`)
	again := mustOK(t, ts.URL, `{
		"threads": [ { "progen": { "shape": "palette", "seed": 11 } },
		             { "progen": { "seed": 12 } } ],
		"timeout_ms": 9000
	}`)
	if first.Shared || first.Cached {
		t.Errorf("first request: shared=%v cached=%v, want a leader", first.Shared, first.Cached)
	}
	if !again.Shared || !again.Cached {
		t.Errorf("re-spelled repeat: shared=%v cached=%v, want a result-LRU hit", again.Shared, again.Cached)
	}
	if !reflect.DeepEqual(first.WireResponse, again.WireResponse) {
		t.Errorf("re-spelled repeat served a different allocation:\n%+v\n%+v", first.WireResponse, again.WireResponse)
	}
	if b := s.Metrics().Batches; b != 1 {
		t.Errorf("engine batches = %d, want 1", b)
	}
}
