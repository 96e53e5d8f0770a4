package remote

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/shard"
)

// TestReplyPastCapNamesTheCap: a worker reply one byte past maxBodyBytes
// fails with an error naming the cap, the worker, the shard and the op,
// not as JSON cut short.
func TestReplyPastCapNamesTheCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for left := maxBodyBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	b := NewShardClient(NewClient(srv.URL, nil), 3, 0)
	_, _, err := b.Retrieve(context.Background(), nil)
	if err == nil {
		t.Fatal("a reply past the cap was accepted")
	}
	for _, want := range []string{strconv.Itoa(maxBodyBytes), srv.URL, "shard 3", shard.OpRetrieve} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "JSON") {
		t.Errorf("error %q reports the cut reply as malformed JSON", err)
	}
}
