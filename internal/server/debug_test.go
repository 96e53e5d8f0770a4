package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/obs"
)

func TestServeEndpoints(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("reads_total").Add(7)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "reads_total 7") {
		t.Errorf("/metrics = %q", out)
	}
	var s obs.Snapshot
	if err := json.Unmarshal([]byte(get("/debug/vars")), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["reads_total"] != 7 {
		t.Errorf("/debug/vars = %+v", s)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("pprof cmdline empty")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:bad", obs.NewRegistry()); err == nil {
		t.Error("expected listen error")
	}
}
