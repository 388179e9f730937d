package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServerEndpoints(t *testing.T) {
	metrics := func(w io.Writer) error {
		WriteGauge(w, "alive_up", "1 while the run is live.", 1)
		return nil
	}
	type status struct {
		Completed int `json:"completed"`
	}
	srv, err := NewDebugServer("127.0.0.1:0", metrics, func() any { return status{Completed: 5} })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "alive_up 1\n") {
		t.Errorf("/metrics missing gauge:\n%s", body)
	}

	body, ctype = get("/debug/status")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/status content type %q", ctype)
	}
	var st status
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Completed != 5 {
		t.Errorf("/debug/status body %q (err %v)", body, err)
	}

	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestDebugServerBadAddr(t *testing.T) {
	if _, err := NewDebugServer("256.0.0.1:bad", func(io.Writer) error { return nil }, nil); err == nil {
		t.Error("expected listen error")
	}
}
