package ens

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/pricing"
)

// Errors returned by registrar operations.
var (
	ErrUnavailable     = errors.New("ens: name unavailable")
	ErrNotRegistered   = errors.New("ens: name not registered")
	ErrNotOwner        = errors.New("ens: caller is not the owner")
	ErrUnderpaid       = errors.New("ens: insufficient payment")
	ErrDurationTooLow  = errors.New("ens: duration below minimum")
	ErrInvalidLabel    = errors.New("ens: invalid label")
	ErrPastGracePeriod = errors.New("ens: grace period over")
)

// Registration is the registrar's record of one .eth second-level name.
type Registration struct {
	Label        string
	LabelHash    ethtypes.Hash
	Node         ethtypes.Hash // namehash(label + ".eth")
	Registrant   ethtypes.Address
	Expiry       int64
	RegisteredAt int64
	// Unindexed marks names registered through the legacy path whose
	// plaintext label never appears in a controller event; the subgraph
	// can only see their hash (the paper's ~34K unrecoverable names).
	Unindexed bool
}

// Clone returns a copy of the registration.
func (r *Registration) Clone() *Registration {
	cp := *r
	return &cp
}

// Service wires the ENS contract suite to a simulated chain. All methods
// that mutate state submit transactions; query methods are pure reads.
// Service is safe for concurrent use.
type Service struct {
	mu     sync.RWMutex
	chain  *chain.Chain
	oracle *pricing.Oracle

	// Contract addresses (targets of submitted transactions).
	RegistryAddr   ethtypes.Address
	RegistrarAddr  ethtypes.Address
	ControllerAddr ethtypes.Address
	ResolverAddr   ethtypes.Address

	regs     map[ethtypes.Hash]*Registration // by labelhash
	byLabel  map[string]ethtypes.Hash
	addrRec  map[ethtypes.Hash]ethtypes.Address // resolver records by node (persist after expiry)
	subnodes map[ethtypes.Hash]*Subdomain       // registry records by node
}

// Deploy installs the ENS contract suite on the chain.
func Deploy(c *chain.Chain, oracle *pricing.Oracle) *Service {
	return &Service{
		chain:          c,
		oracle:         oracle,
		RegistryAddr:   ethtypes.DeriveAddress("contract:ens-registry"),
		RegistrarAddr:  ethtypes.DeriveAddress("contract:eth-base-registrar"),
		ControllerAddr: ethtypes.DeriveAddress("contract:eth-registrar-controller"),
		ResolverAddr:   ethtypes.DeriveAddress("contract:public-resolver"),
		regs:           make(map[ethtypes.Hash]*Registration),
		byLabel:        make(map[string]ethtypes.Hash),
		addrRec:        make(map[ethtypes.Hash]ethtypes.Address),
		subnodes:       make(map[ethtypes.Hash]*Subdomain),
	}
}

// Chain returns the underlying chain.
func (s *Service) Chain() *chain.Chain { return s.chain }

// Oracle returns the ETH-USD oracle used for rent conversion.
func (s *Service) Oracle() *pricing.Oracle { return s.oracle }

// Available reports whether label can be registered at time now: either it
// was never registered, or its previous registration expired and the grace
// period has fully elapsed.
func (s *Service) Available(label string, now int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.availableLocked(label, now)
}

func (s *Service) availableLocked(label string, now int64) bool {
	reg, ok := s.regs[LabelHash(label)]
	if !ok {
		return true
	}
	return now > ReleaseTime(reg.Expiry)
}

// Registration returns a copy of the current registrar record for label.
func (s *Service) Registration(label string) (*Registration, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, ok := s.regs[LabelHash(label)]
	if !ok {
		return nil, false
	}
	return reg.Clone(), true
}

// OwnerOf returns the current registrant of label. Like the mainnet
// registrar's ownerOf, it reports no owner once the name has expired.
func (s *Service) OwnerOf(label string, now int64) (ethtypes.Address, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, ok := s.regs[LabelHash(label)]
	if !ok || now > reg.Expiry {
		return ethtypes.ZeroAddress, false
	}
	return reg.Registrant, true
}

// Resolve returns the resolver's address record for label (under .eth),
// regardless of registration expiry — the ENS behaviour the paper
// identifies as the root of transaction hijacking: "domains continue to
// resolve to the addresses set by previous owners even after expiration".
func (s *Service) Resolve(label string) (ethtypes.Address, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	addr, ok := s.addrRec[Namehash(label+".eth")]
	return addr, ok
}

// PriceWei quotes the total registration price (base rent + any temporary
// premium) for label at time now, for the given duration, in wei.
func (s *Service) PriceWei(label string, duration time.Duration, now int64) ethtypes.Wei {
	usd := s.PriceUSD(label, duration, now)
	eth := s.oracle.ETH(usd, now)
	return ethtypes.EtherFloat(eth)
}

// PriceUSD quotes the total registration price in USD.
func (s *Service) PriceUSD(label string, duration time.Duration, now int64) float64 {
	base := BaseRentUSDPerYear(label) * duration.Hours() / Year.Hours()
	s.mu.RLock()
	reg, ok := s.regs[LabelHash(label)]
	s.mu.RUnlock()
	if ok {
		base += PremiumUSDAt(reg.Expiry, now)
	}
	return base
}

// Register registers label for owner, paying with payment wei attached by
// from. Excess payment is refunded, as the mainnet controller does. The
// registration takes effect at time now.
func (s *Service) Register(now int64, from, owner ethtypes.Address, label string, duration time.Duration, payment ethtypes.Wei) (*chain.Receipt, error) {
	if len(label) < 3 {
		return nil, fmt.Errorf("%w: %q", ErrInvalidLabel, label)
	}
	if duration < MinRegistrationDuration {
		return nil, fmt.Errorf("%w: %s", ErrDurationTooLow, duration)
	}
	return s.chain.Apply(now, from, s.ControllerAddr, payment, []byte(label), "register", func(ctx *chain.TxContext) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.availableLocked(label, now) {
			return fmt.Errorf("%w: %q at %d", ErrUnavailable, label, now)
		}
		lh := LabelHash(label)
		baseUSD := BaseRentUSDPerYear(label) * duration.Hours() / Year.Hours()
		premiumUSD := 0.0
		if prev, ok := s.regs[lh]; ok {
			premiumUSD = PremiumUSDAt(prev.Expiry, now)
		}
		cost := ethtypes.EtherFloat(s.oracle.ETH(baseUSD+premiumUSD, now))
		if payment.Cmp(cost) < 0 {
			return fmt.Errorf("%w: need %s, got %s", ErrUnderpaid, cost, payment)
		}
		if excess := payment.Sub(cost); !excess.IsZero() {
			if err := ctx.TransferFromContract(from, excess); err != nil {
				return err
			}
		}
		reg := &Registration{
			Label:        label,
			LabelHash:    lh,
			Node:         Namehash(label + ".eth"),
			Registrant:   owner,
			Expiry:       now + int64(duration/time.Second),
			RegisteredAt: now,
		}
		s.regs[lh] = reg
		s.byLabel[label] = lh
		ctx.Emit("NameRegistered", []ethtypes.Hash{lh}, map[string]string{
			"name":       label,
			"label":      lh.Hex(),
			"owner":      owner.Hex(),
			"baseCost":   ethtypes.EtherFloat(s.oracle.ETH(baseUSD, now)).Decimal(),
			"premium":    ethtypes.EtherFloat(s.oracle.ETH(premiumUSD, now)).Decimal(),
			"costWei":    cost.Decimal(),
			"expires":    strconv.FormatInt(reg.Expiry, 10),
			"registered": strconv.FormatInt(now, 10),
		})
		return nil
	})
}

// RegisterUnindexed registers label through the legacy registrar path: the
// registration is valid, but no plaintext name appears in any event, so the
// subgraph can only index the hash. This models the paper's ~34K
// unrecoverable names (0.1-1% of the population).
func (s *Service) RegisterUnindexed(now int64, from, owner ethtypes.Address, label string, duration time.Duration, payment ethtypes.Wei) (*chain.Receipt, error) {
	rcpt, err := s.Register(now, from, owner, label, duration, payment)
	if err != nil {
		return rcpt, err
	}
	s.mu.Lock()
	if reg, ok := s.regs[LabelHash(label)]; ok {
		reg.Unindexed = true
	}
	s.mu.Unlock()
	// Rewrite the emitted log to hide the plaintext name, as if the
	// registration had bypassed the controller.
	for _, l := range rcpt.Logs {
		if l.Event == "NameRegistered" {
			delete(l.Data, "name")
			l.Data["unindexed"] = "true"
		}
	}
	return rcpt, err
}

// Renew extends label's registration by duration. Mainnet allows anyone to
// renew any name; renewal is valid until the end of the grace period.
func (s *Service) Renew(now int64, from ethtypes.Address, label string, duration time.Duration, payment ethtypes.Wei) (*chain.Receipt, error) {
	return s.chain.Apply(now, from, s.ControllerAddr, payment, []byte(label), "renew", func(ctx *chain.TxContext) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		lh := LabelHash(label)
		reg, ok := s.regs[lh]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotRegistered, label)
		}
		if now > ReleaseTime(reg.Expiry) {
			return fmt.Errorf("%w: %q", ErrPastGracePeriod, label)
		}
		usd := BaseRentUSDPerYear(label) * duration.Hours() / Year.Hours()
		cost := ethtypes.EtherFloat(s.oracle.ETH(usd, now))
		if payment.Cmp(cost) < 0 {
			return fmt.Errorf("%w: need %s, got %s", ErrUnderpaid, cost, payment)
		}
		if excess := payment.Sub(cost); !excess.IsZero() {
			if err := ctx.TransferFromContract(from, excess); err != nil {
				return err
			}
		}
		reg.Expiry += int64(duration / time.Second)
		data := map[string]string{
			"name":    label,
			"label":   lh.Hex(),
			"costWei": cost.Decimal(),
			"expires": strconv.FormatInt(reg.Expiry, 10),
		}
		if reg.Unindexed {
			// Legacy-path names stay hidden in follow-up events too.
			delete(data, "name")
		}
		ctx.Emit("NameRenewed", []ethtypes.Hash{lh}, data)
		return nil
	})
}

// TransferName moves ownership of an unexpired name from the current
// registrant to newOwner (an ERC-721 transfer on the base registrar).
func (s *Service) TransferName(now int64, from ethtypes.Address, label string, newOwner ethtypes.Address) (*chain.Receipt, error) {
	return s.chain.Apply(now, from, s.RegistrarAddr, ethtypes.Wei{}, []byte(label), "safeTransferFrom", func(ctx *chain.TxContext) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		lh := LabelHash(label)
		reg, ok := s.regs[lh]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotRegistered, label)
		}
		if now > reg.Expiry {
			return fmt.Errorf("%w: %q expired", ErrNotRegistered, label)
		}
		if reg.Registrant != from {
			return fmt.Errorf("%w: %s", ErrNotOwner, from)
		}
		old := reg.Registrant
		reg.Registrant = newOwner
		data := map[string]string{
			"name":     reg.Label,
			"label":    lh.Hex(),
			"from":     old.Hex(),
			"newOwner": newOwner.Hex(),
		}
		if reg.Unindexed {
			delete(data, "name")
		}
		ctx.Emit("NameTransferred", []ethtypes.Hash{lh}, data)
		return nil
	})
}

// SetAddr sets the resolver's address record for label. Only the current
// registrant may change it; the record itself persists after expiry.
func (s *Service) SetAddr(now int64, from ethtypes.Address, label string, target ethtypes.Address) (*chain.Receipt, error) {
	return s.chain.Apply(now, from, s.ResolverAddr, ethtypes.Wei{}, []byte(label), "setAddr", func(ctx *chain.TxContext) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		lh := LabelHash(label)
		reg, ok := s.regs[lh]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotRegistered, label)
		}
		if reg.Registrant != from || now > reg.Expiry {
			return fmt.Errorf("%w: %s", ErrNotOwner, from)
		}
		node := Namehash(label + ".eth")
		s.addrRec[node] = target
		data := map[string]string{
			"node": node.Hex(),
			"name": label,
			"addr": target.Hex(),
		}
		if reg.Unindexed {
			delete(data, "name")
		}
		ctx.Emit("AddrChanged", []ethtypes.Hash{node}, data)
		return nil
	})
}

// Registrations returns copies of every registrar record, for ground-truth
// validation in tests (the analysis pipeline never uses this).
func (s *Service) Registrations() []*Registration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Registration, 0, len(s.regs))
	for _, r := range s.regs {
		out = append(out, r.Clone())
	}
	// Map order would leak into the returned slice; ground-truth
	// comparisons need a stable order (maporder).
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].LabelHash[:], out[j].LabelHash[:]) < 0
	})
	return out
}
