// Command enspremium prints the ENS temporary-premium schedule (the
// 21-day Dutch auction of §2.1) for a name whose registration expired at a
// given date, plus the grace-period boundaries — the calculator a
// dropcatcher (or a defender estimating exposure) would use.
//
// The expiry comes either from -expiry directly, or from a persisted
// dataset: with -data, the tool loads the dataset (a directory holding
// dataset.bin, or a snapshot file), looks up -label, and uses its final
// on-chain expiry.
//
// Examples:
//
//	enspremium -expiry 2023-01-15 -label gold
//	enspremium -data ./data -label gold
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/par"
	"ensdropcatch/internal/pricing"
	"ensdropcatch/internal/report"
)

func main() {
	var (
		expiryStr   = flag.String("expiry", "", "expiry date (YYYY-MM-DD; required unless -data is given)")
		dataPath    = flag.String("data", "", "dataset (a directory holding dataset.bin, or a snapshot file); -label's recorded expiry is used instead of -expiry")
		label       = flag.String("label", "example", "label, for the base-rent tier (and the dataset lookup with -data)")
		stepHours   = flag.Int("step", 24, "schedule step in hours")
		metricsAddr = flag.String("metrics-addr", "", "after printing, keep serving /metrics and /debug/pprof on this address until interrupted (for profiling)")
		workers     = flag.Int("workers", 0, "worker count for computing the schedule rows (0 = GOMAXPROCS); output is identical for every value")
	)
	flag.Parse()
	if *stepHours <= 0 {
		fmt.Fprintln(os.Stderr, "enspremium: -step must be positive")
		os.Exit(2)
	}
	var expiry int64
	switch {
	case *dataPath != "" && *expiryStr != "":
		fmt.Fprintln(os.Stderr, "enspremium: -data and -expiry are mutually exclusive")
		os.Exit(2)
	case *dataPath != "":
		ds, err := dataset.Load(*dataPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "enspremium: load -data: %v\n", err)
			os.Exit(1)
		}
		d, ok := ds.ByLabel(*label)
		if !ok {
			fmt.Fprintf(os.Stderr, "enspremium: %s.eth not in dataset %s\n", *label, *dataPath)
			os.Exit(1)
		}
		expiry = d.FinalExpiry(ds.End + 1)
		if expiry == 0 {
			fmt.Fprintf(os.Stderr, "enspremium: %s.eth has no recorded expiry in dataset %s\n", *label, *dataPath)
			os.Exit(1)
		}
	case *expiryStr != "":
		expiryTime, err := time.Parse("2006-01-02", *expiryStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "enspremium: bad -expiry: %v\n", err)
			os.Exit(2)
		}
		expiry = expiryTime.Unix()
	default:
		fmt.Fprintln(os.Stderr, "enspremium: one of -expiry (YYYY-MM-DD) or -data is required")
		os.Exit(2)
	}
	release := ens.ReleaseTime(expiry)
	end := ens.PremiumEndTime(expiry)
	oracle := pricing.NewOracle()

	fmt.Printf("name:            %s.eth (base rent %s/year)\n", *label, report.USD(ens.BaseRentUSDPerYear(*label)))
	fmt.Printf("expired:         %s\n", time.Unix(expiry, 0).UTC().Format("2006-01-02"))
	fmt.Printf("grace ends:      %s (owner-only renewal until then)\n", time.Unix(release, 0).UTC().Format("2006-01-02"))
	fmt.Printf("premium reaches zero: %s\n\n", time.Unix(end, 0).UTC().Format("2006-01-02"))

	step := int64(*stepHours) * 3600
	n := int((end-release)/step) + 1
	// par.Map writes row i to slot i, so the printed schedule is in time
	// order regardless of worker count.
	rows := par.Map(par.New("premium_schedule", *workers), n, func(i int) []string {
		ts := release + int64(i)*step
		premium := ens.PremiumUSDAt(expiry, ts)
		total := premium + ens.BaseRentUSDPerYear(*label)
		return []string{
			time.Unix(ts, 0).UTC().Format("2006-01-02 15:04"),
			fmt.Sprintf("%.1f", float64(ts-release)/86400),
			report.USD(premium),
			report.USD(total),
			fmt.Sprintf("%.4f ETH", oracle.ETH(total, ts)),
		}
	})
	fmt.Print(report.Table([]string{"time (UTC)", "auction day", "premium", "total (1yr)", "total in ETH"}, rows))

	if *metricsAddr != "" {
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		if _, err := obs.StartDebugServer(*metricsAddr, obs.Default, logger); err != nil {
			fmt.Fprintf(os.Stderr, "enspremium: metrics listener: %v\n", err)
			os.Exit(1)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-ctx.Done()
	}
}
