package ens

import (
	"errors"
	"testing"

	"ensdropcatch/internal/ethtypes"
)

func TestSubdomainLifecycle(t *testing.T) {
	s, c := newService(t)
	alice := fund(c, "sd-alice", 1000)
	mallory := fund(c, "sd-mallory", 10)
	payBot := ethtypes.DeriveAddress("sd-paybot")

	s.Register(worldStart, alice, alice, "gold", Year, s.PriceWei("gold", Year, worldStart))

	// Only the parent owner can create subdomains.
	rcpt, err := s.CreateSubdomain(worldStart+10, mallory, "gold", "pay", mallory)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rcpt.Err, ErrNotOwner) {
		t.Errorf("non-owner subdomain revert = %v", rcpt.Err)
	}

	rcpt, err = s.CreateSubdomain(worldStart+20, alice, "gold", "pay", payBot)
	if err != nil || rcpt.Err != nil {
		t.Fatalf("create: %v %v", err, rcpt)
	}
	sub, ok := s.SubdomainOf("pay.gold")
	if !ok || sub.Owner != payBot || sub.FullName != "pay.gold" {
		t.Fatalf("subdomain = %+v, %v", sub, ok)
	}
	if s.SubdomainCount() != 1 {
		t.Errorf("count = %d", s.SubdomainCount())
	}

	// The subdomain owner (not the parent owner) controls its records.
	rcpt, err = s.SetSubdomainAddr(worldStart+30, alice, "pay.gold", alice)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rcpt.Err, ErrNotOwner) {
		t.Errorf("parent setting sub record revert = %v", rcpt.Err)
	}
	if _, err := s.SetSubdomainAddr(worldStart+40, payBot, "pay.gold", payBot); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Resolve("pay.gold")
	if !ok || got != payBot {
		t.Errorf("resolve pay.gold = %s, %v", got, ok)
	}

	// Invalid labels rejected.
	if _, err := s.CreateSubdomain(worldStart+50, alice, "gold", "a.b", alice); !errors.Is(err, ErrInvalidLabel) {
		t.Errorf("dotted sublabel err = %v", err)
	}
}

func TestSubdomainRecordSurvivesParentExpiry(t *testing.T) {
	s, c := newService(t)
	alice := fund(c, "sd2-alice", 1000)
	s.Register(worldStart, alice, alice, "gold", Year, s.PriceWei("gold", Year, worldStart))
	s.CreateSubdomain(worldStart+10, alice, "gold", "vault", alice)
	s.SetSubdomainAddr(worldStart+20, alice, "vault.gold", alice)

	// Long after gold.eth expired, vault.gold.eth still resolves — more
	// residual state, same hazard class as the paper's 2LD finding.
	if got, ok := s.Resolve("vault.gold"); !ok || got != alice {
		t.Errorf("stale subdomain resolution = %s, %v", got, ok)
	}
}
