package vec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := Clone(p)
	q[0] = 99
	if p[0] != 1 {
		t.Fatalf("Clone shares storage: p = %v", p)
	}
	if !slices.Equal(p, Point{1, 2, 3}) {
		t.Fatalf("original mutated: %v", p)
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 2})
	if !b.Contains(Point{0, 0}) || !b.Contains(Point{1, 2}) {
		t.Error("box bounds should be inclusive")
	}
	if !b.Contains(Point{0.5, 1}) {
		t.Error("interior point should be contained")
	}
	if b.Contains(Point{1.0001, 1}) || b.Contains(Point{-0.0001, 1}) {
		t.Error("exterior point should not be contained")
	}
}

// TestDistanceMismatchPanics checks that every box operation taking a second
// operand panics when its dimensionality differs from the box's.
func TestDistanceMismatchPanics(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 2})
	ops := map[string]func(){
		"Contains":   func() { b.Contains(Point{1}) },
		"Intersects": func() { b.Intersects(NewBox(Point{0}, Point{1})) },
		"Clamp":      func() { b.Clamp(Point{1, 2, 3}) },
		"NewBox":     func() { NewBox(Point{0}, Point{1, 2}) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on dimension mismatch", name)
				}
			}()
			op()
		}()
	}
}

func TestBoxGeometry(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{2, 4})
	if c := b.Center(); !slices.Equal(c, Point{1, 2}) {
		t.Errorf("Center = %v", c)
	}
	if w := b.Widths(); !slices.Equal(w, Point{2, 4}) {
		t.Errorf("Widths = %v", w)
	}
	if b.Dims() != 2 {
		t.Errorf("Dims = %d", b.Dims())
	}
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(Point{0, 0}, Point{1, 1})
	cases := []struct {
		b    Box
		want bool
	}{
		{NewBox(Point{0.5, 0.5}, Point{2, 2}), true},
		{NewBox(Point{1, 1}, Point{2, 2}), true}, // touching corners count
		{NewBox(Point{1.5, 1.5}, Point{2, 2}), false},
		{NewBox(Point{-1, -1}, Point{2, 2}), true}, // containment counts
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestBoxClamp(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	got := b.Clamp(Point{-5, 0.5})
	if !slices.Equal(got, Point{0, 0.5}) {
		t.Errorf("Clamp = %v", got)
	}
	if !b.Contains(got) {
		t.Error("clamped point must lie inside the box")
	}
}

func TestInvertedBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted box")
		}
	}()
	NewBox(Point{1}, Point{0})
}

// randomPair builds two same-dimension points from the fuzzer's randomness.
func randomPair(r *rand.Rand) (Point, Point) {
	d := 1 + r.Intn(6)
	a := make(Point, d)
	b := make(Point, d)
	for i := 0; i < d; i++ {
		a[i] = r.NormFloat64() * 10
		b[i] = r.NormFloat64() * 10
	}
	return a, b
}

func TestQuickBoxCenterContained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomPair(r)
		min := make(Point, len(a))
		max := make(Point, len(a))
		for i := range a {
			min[i] = math.Min(a[i], b[i])
			max[i] = math.Max(a[i], b[i])
		}
		box := NewBox(min, max)
		return box.Contains(box.Center()) && box.Contains(box.Clamp(a)) && box.Contains(box.Clamp(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
