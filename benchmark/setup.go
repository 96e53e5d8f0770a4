package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/server"
)

// buildStore runs the index initialization phase for the workload's layout.
func buildStore(dir string, ds *dataset.Dataset, w workload) error {
	return core.Build(dir, ds, core.BuildOptions{
		TargetChunkBytes: chunkBytes,
		Shards:           w.Shards,
		LiveIngest:       w.Live,
	})
}

// serverConfig is the uei-serve configuration under test. Workers and
// StepConcurrency stay at their defaults, which follow GOMAXPROCS (procs in
// main.go); prefetch is off so a replay is deterministic.
func serverConfig(w workload, dir string) server.Config {
	return server.Config{
		StoreDir:         dir,
		TotalBudgetBytes: w.SessionBudgetBytes + w.BlockCacheBytes,
		BlockCacheBytes:  w.BlockCacheBytes,
		MaxSessions:      1,
		Shards:           w.Shards,
		LiveIngest:       w.Live,
		FollowLive:       w.Live,
	}
}

// service is an in-process uei-serve: a Manager behind net/http on a
// loopback port.
type service struct {
	m      *server.Manager
	srv    *http.Server
	url    string
	served chan error
}

// startService opens the store and serves it. wrap, when non-nil, wraps the
// session API handler (the traced run's timing middleware).
func startService(ctx context.Context, cfg server.Config, wrap func(http.Handler) http.Handler) (*service, error) {
	m, err := server.NewManager(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close(ctx)
		return nil, err
	}
	h := m.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{
		m:      m,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve goroutine, and closes
// the manager (which closes the index).
func (s *service) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.m.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// copyDir copies a store directory tree (live rounds each start from a
// fresh copy of the store built at set-up).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the regular files under dir, skipping the server's session
// snapshot directory (not part of the store).
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "sessions" && filepath.Dir(path) == dir {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// scratch hands out fresh directories under one root that is removed when
// the run ends.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir, name string) (*scratch, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, name+".tmp-")
	if err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

// dir returns a path that does not exist yet.
func (s *scratch) dir(label string) string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("%s-%03d", label, s.n))
}

func (s *scratch) remove() { _ = os.RemoveAll(s.root) }
