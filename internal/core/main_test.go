package core

import (
	"testing"

	"github.com/uei-db/uei/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m, leakcheck.Files) }
