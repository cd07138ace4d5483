package serve

import (
	"net/http"
	"testing"
)

// TestSimulateAnalyzeBytes pins the /v1/simulate and /v1/analyze reply
// bodies byte for byte: field names, field order and number formatting are
// the wire contract that chimera-sim -json shares.
func TestSimulateAnalyzeBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},
			"micro_batch":4,"w":4,"auto_recompute":true,"platform":{"preset":"pizdaint"}}`,
			`{"iter_time":1.2936755562000002,"throughput":49.47144567529086,"bubble_ratio":0.25757552569388525,"compute_span":0.44484510200000005,"sync_time":0.8488304542000001,"peak_mem_bytes":[7767986176,8056897536,8056897536,7767986176],"oom":false,"mini_batch":64,"recompute":false}`},
		{"/v1/analyze", `{"schedule":{"scheme":"chimera","d":4,"n":4}}`,
			`{"scheme":"chimera","d":4,"n":4,"bubble_ratio_equal":0.2,"bubble_ratio_practical":0.25,"activations_ma":[3,4,4,3],"weights_mtheta":[2,2,2,2],"synchronous":true}`},
	} {
		status, got := post(t, ts, tc.path, tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, status, got)
		}
		if string(got) != tc.want {
			t.Errorf("%s: reply\n%s\nwant\n%s", tc.path, got, tc.want)
		}
	}
}
