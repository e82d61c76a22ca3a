package droppederr_test

import (
	"testing"

	"ensdropcatch/internal/lint/droppederr"
	"ensdropcatch/internal/lint/linttest"
)

func TestDroppederr(t *testing.T) {
	linttest.Run(t, droppederr.Analyzer,
		"ensdropcatch/internal/crawler", // positive: crawl-client path
		"ensdropcatch/internal/trace",   // positive: trace store/debug handler path
		"ensdropcatch/internal/stats",   // negative: pure computation
	)
}
