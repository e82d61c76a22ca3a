package core

import (
	"cmp"
	"slices"
	"sort"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/world"
)

// The paper's Limitations section: "We hope that wallet providers will
// eventually share their resolution data with researchers so that
// follow-up work can more authoritatively quantify accidental ENS
// transactions." This file implements that follow-up against the
// simulation's vendor-side resolution log: for every payment initiated by
// resolving a name, decide authoritatively whether it reached a different
// owner than the one the sender had established the relationship with.

// ResolutionFinding is one authoritative misdirection: a via-ENS payment
// that landed with a later owner of a name the sender had previously paid
// under an earlier owner.
type ResolutionFinding struct {
	Name      string
	Sender    ethtypes.Address
	Recipient ethtypes.Address
	At        int64
	TxHash    ethtypes.Hash
	USD       float64
}

// ResolutionLogReport is the authoritative loss measurement.
type ResolutionLogReport struct {
	// TotalResolutions is the number of via-ENS payments observed.
	TotalResolutions int
	// StaleResolutions are payments resolved after the name's expiry but
	// before re-registration (they still reached the previous owner —
	// Figure 7's hijackable class, observed directly).
	StaleResolutions int
	// Misdirected payments reached a new owner.
	Misdirected []ResolutionFinding
	// MisdirectedUSD totals them.
	MisdirectedUSD float64
}

// LossesFromResolutionLog computes the authoritative misdirection report
// from vendor resolution data. A payment is misdirected when the tenure
// holding the name at payment time differs from the tenure during which
// the sender first paid through the name; it is stale when it happened
// after the covering tenure's expiry (still reaching the old owner).
//
// The report is memoized for the last log replayed, matched by content
// against a retained copy, so EvaluateCountermeasure's windows and the
// report share one replay while an edited log is replayed afresh.
// Callers must treat it as read-only; ComputeLossesFromResolutionLog
// runs uncached.
func (a *Analyzer) LossesFromResolutionLog(log []world.ResolutionRecord) *ResolutionLogReport {
	a.memo.mu.Lock()
	if rep := a.memo.resolution; rep != nil && slices.Equal(a.memo.resolutionLog, log) {
		a.memo.mu.Unlock()
		return rep
	}
	a.memo.mu.Unlock()

	rep := a.ComputeLossesFromResolutionLog(log)

	a.memo.mu.Lock()
	if a.memo.resolution != nil && slices.Equal(a.memo.resolutionLog, log) {
		rep = a.memo.resolution // keep the first stored copy; runs are identical
	} else {
		a.memo.resolution, a.memo.resolutionLog = rep, slices.Clone(log)
	}
	a.memo.mu.Unlock()
	return rep
}

// ComputeLossesFromResolutionLog replays the log uncached.
func (a *Analyzer) ComputeLossesFromResolutionLog(log []world.ResolutionRecord) *ResolutionLogReport {
	rep := &ResolutionLogReport{}

	// Each exact spelling of a name gets a dense id and its history (nil
	// when unknown) on first sight: the log names few domains many times
	// over. Spellings that ByLabel folds to one domain keep separate ids.
	type spelling struct {
		id int32
		h  *History
	}
	spellings := map[string]spelling{}
	// First pass: each sender's first via-ENS tenure per name.
	type key struct {
		name   int32
		sender ethtypes.Address
	}
	firstTenure := map[key]int{}
	byAt := func(x, y world.ResolutionRecord) int { return cmp.Compare(x.At, y.At) }
	ordered := log
	if !slices.IsSortedFunc(log, byAt) {
		ordered = slices.Clone(log)
		slices.SortStableFunc(ordered, byAt)
	}

	for _, rec := range ordered {
		rep.TotalResolutions++
		sp, seen := spellings[rec.Name]
		if !seen {
			sp.id = int32(len(spellings))
			if d, ok := a.DS.ByLabel(rec.Name); ok {
				sp.h = a.Pop.Histories[d.LabelHash]
			}
			spellings[rec.Name] = sp
		}
		if sp.h == nil {
			continue
		}
		tenure := tenureAt(sp.h, rec.At)
		if tenure < 0 {
			continue
		}
		k := key{sp.id, rec.Sender}
		if first, seen := firstTenure[k]; seen {
			if tenure != first {
				rep.Misdirected = append(rep.Misdirected, ResolutionFinding{
					Name:      rec.Name,
					Sender:    rec.Sender,
					Recipient: rec.Resolved,
					At:        rec.At,
					TxHash:    rec.TxHash,
					USD:       a.Oracle.USD(a.paymentEth(rec), rec.At),
				})
				rep.MisdirectedUSD += rep.Misdirected[len(rep.Misdirected)-1].USD
				continue
			}
		} else {
			firstTenure[k] = tenure
		}
		if rec.At > sp.h.Tenures[tenure].Expiry {
			rep.StaleResolutions++
		}
	}
	return rep
}

// tenureAt returns the index of the tenure "holding" the name at time t:
// the last tenure registered at or before t (stale post-expiry resolution
// still belongs to that tenure until the next registration).
func tenureAt(h *History, t int64) int {
	idx := -1
	for i := range h.Tenures {
		if h.Tenures[i].RegisteredAt <= t {
			idx = i
		}
	}
	return idx
}

// paymentEth returns the ether value of rec's payment: the sender's
// successful transaction to the resolved address with rec's hash, found
// by binary search on rec's timestamp, or 0 when the dataset holds no
// such transaction.
func (a *Analyzer) paymentEth(rec world.ResolutionRecord) float64 {
	txs := a.DS.OutgoingTo(rec.Sender, rec.Resolved)
	i := sort.Search(len(txs), func(i int) bool { return txs[i].Timestamp >= rec.At })
	for ; i < len(txs) && txs[i].Timestamp == rec.At; i++ {
		if txs[i].Hash == rec.TxHash {
			return txs[i].ValueEth()
		}
	}
	return 0
}
