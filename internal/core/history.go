// Package core implements the paper's analysis pipeline — the primary
// contribution of the reproduction. Working purely from crawled data (the
// dataset package), it detects re-registrations (§4.1), compares lexical
// and transactional features against a control group (§4.3, Table 1),
// quantifies hijackable and misdirected funds with the conservative
// common-sender heuristic (§4.4, Figures 7-10), and analyzes the resale
// market (§4.2). It never reads the generator's ground truth.
package core

import (
	"bytes"
	"math/big"
	"sort"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
)

// Tenure is one continuous ownership span of a domain: a NameRegistered
// event plus the renewals that extended it, ending at its final expiry.
type Tenure struct {
	// FirstOwner is the registrant of the registration event.
	FirstOwner ethtypes.Address
	// LastOwner is the holder at the end of the tenure (differs from
	// FirstOwner if the name was transferred).
	LastOwner    ethtypes.Address
	RegisteredAt int64
	// Expiry is the final expiry after renewals within the tenure.
	Expiry int64
	// CostWei / PremiumWei are taken from the registration event.
	CostWei    string
	PremiumWei string
	Renewals   int
}

// PremiumPositive reports whether a positive premium was paid.
func (t *Tenure) PremiumPositive() bool {
	return weiStringPositive(t.PremiumWei)
}

func weiStringPositive(s string) bool {
	for _, c := range s {
		if c >= '1' && c <= '9' {
			return true
		}
	}
	return false
}

// weiStringToEth converts a decimal wei string to float64 ether.
func weiStringToEth(s string) float64 {
	if s == "" {
		return 0
	}
	i, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return 0
	}
	f, _ := new(big.Float).Quo(new(big.Float).SetInt(i), big.NewFloat(1e18)).Float64()
	return f
}

// History is a domain's reconstructed ownership timeline.
type History struct {
	Domain  *dataset.Domain
	Tenures []Tenure
}

// BuildHistory reconstructs the tenures of a domain from its event list.
func BuildHistory(d *dataset.Domain) *History {
	h := &History{Domain: d}
	for _, e := range d.Events {
		switch e.Type {
		case dataset.EvRegistered:
			h.Tenures = append(h.Tenures, Tenure{
				FirstOwner:   e.Registrant,
				LastOwner:    e.Registrant,
				RegisteredAt: e.Timestamp,
				Expiry:       e.Expiry,
				CostWei:      e.CostWei,
				PremiumWei:   e.PremiumWei,
			})
		case dataset.EvRenewed:
			if n := len(h.Tenures); n > 0 {
				h.Tenures[n-1].Expiry = e.Expiry
				h.Tenures[n-1].Renewals++
			}
		case dataset.EvTransferred:
			if n := len(h.Tenures); n > 0 {
				h.Tenures[n-1].LastOwner = e.Registrant
			}
		}
	}
	return h
}

// Reregistrations returns the tenure indexes j >= 1 where the new
// registrant differs from the previous tenure's last holder — the paper's
// definition of a dropcatch ("held by new wallets post-expiration vs
// pre-expiration").
func (h *History) Reregistrations() []int {
	var out []int
	for j := 1; j < len(h.Tenures); j++ {
		if h.Tenures[j].FirstOwner != h.Tenures[j-1].LastOwner {
			out = append(out, j)
		}
	}
	return out
}

// Reregistered reports whether the domain changed hands through an
// expire/re-register cycle at least once.
func (h *History) Reregistered() bool { return len(h.Reregistrations()) > 0 }

// ExpiredBy reports whether the domain's last tenure had expired before
// cutoff (so it was expired — and possibly available — at that time).
func (h *History) ExpiredBy(cutoff int64) bool {
	if len(h.Tenures) == 0 {
		return false
	}
	return h.Tenures[len(h.Tenures)-1].Expiry < cutoff
}

// FirstExpiredBy reports whether the FIRST tenure ended before cutoff —
// the membership test for the paper's expired population (re-registered
// domains expired at least once by construction).
func (h *History) FirstExpiredBy(cutoff int64) bool {
	return len(h.Tenures) > 0 && h.Tenures[0].Expiry < cutoff
}

// TenureEnd returns when tenure i stopped receiving the domain's traffic:
// the next tenure's registration, or cutoff for the last tenure.
func (h *History) TenureEnd(i int, cutoff int64) int64 {
	if i+1 < len(h.Tenures) {
		return h.Tenures[i+1].RegisteredAt
	}
	return cutoff
}

// Population is the classified domain universe of the study.
type Population struct {
	// Histories of every domain, keyed by label hash.
	Histories map[ethtypes.Hash]*History
	// All holds every history sorted by label hash, giving the parallel
	// analyses a fixed iteration order independent of map randomization.
	All []*History
	// Reregistered domains (>= 1 owner-changing re-registration).
	Reregistered []*History
	// ExpiredNotRereg domains expired (first tenure) but never taken by
	// a new owner — the control sampling pool.
	ExpiredNotRereg []*History
	// ActiveAtEnd domains whose registration outlived the window.
	ActiveAtEnd []*History
	// SameOwnerRereg expired and were re-registered by the same owner.
	SameOwnerRereg []*History
	// Unrecovered counts domains whose plaintext label is unknown (the
	// subgraph's API-limitation names).
	Unrecovered int
}

// Classify builds the population from a dataset, using the dataset's
// window end as the observation cutoff.
func Classify(ds *dataset.Dataset) *Population {
	pop := &Population{Histories: make(map[ethtypes.Hash]*History, len(ds.Domains))}
	cutoff := ds.End
	for lh, d := range ds.Domains {
		h := BuildHistory(d)
		pop.Histories[lh] = h
		pop.All = append(pop.All, h)
		if d.Label == "" {
			pop.Unrecovered++
		}
		switch {
		case h.Reregistered():
			pop.Reregistered = append(pop.Reregistered, h)
		case h.FirstExpiredBy(cutoff) && len(h.Tenures) > 1:
			pop.SameOwnerRereg = append(pop.SameOwnerRereg, h)
		case h.FirstExpiredBy(cutoff):
			pop.ExpiredNotRereg = append(pop.ExpiredNotRereg, h)
		default:
			pop.ActiveAtEnd = append(pop.ActiveAtEnd, h)
		}
	}
	// Deterministic ordering for downstream sampling. Byte comparison
	// orders identically to the former Hex() comparison without
	// allocating two strings per probe.
	for _, list := range [][]*History{pop.All, pop.Reregistered, pop.ExpiredNotRereg, pop.ActiveAtEnd, pop.SameOwnerRereg} {
		sort.Slice(list, func(i, j int) bool {
			return bytes.Compare(list[i].Domain.LabelHash[:], list[j].Domain.LabelHash[:]) < 0
		})
	}
	return pop
}

// PremiumEndOf returns when tenure i's post-expiry auction premium reached
// zero.
func (h *History) PremiumEndOf(i int) int64 { return ens.PremiumEndTime(h.Tenures[i].Expiry) }
