package remote_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

// FuzzServerRequests posts arbitrary bodies to the three shard operations of
// a worker over a healthy two-shard store. Whatever arrives, the worker
// answers 200 or a 4xx JSON error envelope: a 5xx would tell a coordinator
// the replica is at fault (failover, shard_degraded_total) when the request
// was, and a panic would take the worker down for every session.
func FuzzServerRequests(f *testing.F) {
	dir, _ := buildStore(f, 300, 2, 5)
	w := startWorker(f, dir, 2)
	handler := w.srv.Config.Handler
	ops := []string{shard.OpLoad, shard.OpFetch, shard.OpRetrieve}

	for op, bodies := range [][]string{
		{`{"cell":0}`, `{"cell":999999}`, `{"cell":-1}`, `{"cell":1e99}`, `{"cell":"0"}`},
		{`{"ids":[0,1,2]}`, `{"ids":[12,11,0]}`, `{"ids":[3,3]}`, `{"ids":[4294967295]}`, `{"ids":null}`, `{}`},
		{
			`{"marked":[[true,true,true,true,true],[true,false,true,false,true],[true,true,true,true,true],[false,false,false,false,false],[true,true,true,true,true]]}`,
			`{"marked":[[true]]}`, `{"marked":[[],[],[],[],[]]}`, `{"marked":null}`, `[`,
		},
	} {
		for _, body := range bodies {
			f.Add(uint8(op), uint8(0), []byte(body))
		}
	}
	f.Add(uint8(0), uint8(2), []byte(`{"cell":0}`)) // a shard the store does not have

	f.Fuzz(func(t *testing.T, op, shardID uint8, body []byte) {
		path := fmt.Sprintf("/v1/shards/%d/%s", shardID%3, ops[int(op)%len(ops)])
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			var e remote.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %q: status %d with body %q, not an error envelope", path, body, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body)
		}
	})
}
