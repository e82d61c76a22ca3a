package opensea

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/world"
)

// fuzzEvents builds 230 events over five tokens, enough that a 200-row
// page leaves a next cursor. Each token's events are in time order, as
// the world emits them, but the tokens interleave out of time order and
// tie on timestamps, so the server's global sort is exercised.
func fuzzEvents() []world.OpenSeaEvent {
	var evs []world.OpenSeaEvent
	for i := 0; i < 230; i++ {
		tok, round := i%5, i/5
		label := fmt.Sprintf("fuzzname%d", tok)
		ev := world.OpenSeaEvent{
			Kind: world.OSList, Label: label, TokenID: ens.LabelHash(label),
			Seller:   ethtypes.DeriveAddress(label + "-seller"),
			PriceUSD: float64(10*round + tok), Timestamp: 1_600_000_000 + int64(10*round+(4-tok)%3),
		}
		if round%2 == 1 {
			ev.Kind = world.OSSale
			ev.Buyer = ethtypes.DeriveAddress(label + "-buyer")
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzOpenSeaQuery sends arbitrary limit, cursor, token_id and
// event_type strings to the events endpoint. A limit outside [1, 200] or
// a cursor that is not a non-negative integer gets 400. Any other
// request gets exactly the page a reference pager computes over the same
// events: time-ordered, filtered by token and type, limit rows from the
// cursor, with next set exactly when events remain.
func FuzzOpenSeaQuery(f *testing.F) {
	raw := fuzzEvents()
	srv := NewServer(raw)

	// The reference view: every event in API form, stably time-sorted.
	all := make([]Event, 0, len(raw))
	for _, ev := range raw {
		e := Event{EventType: "listing", TokenID: ev.TokenID.Hex(), Name: ev.Label + ".eth",
			Seller: ev.Seller.Hex(), PriceUSD: ev.PriceUSD, Timestamp: ev.Timestamp}
		if ev.Kind == world.OSSale {
			e.EventType, e.Buyer = "sale", ev.Buyer.Hex()
		}
		all = append(all, e)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp < all[j].Timestamp })

	token := raw[3].TokenID.Hex()
	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"200", "0", "", ""},
		{"201", "", "", ""},
		{"-1", "", "", ""},
		{"1e3", "", "", ""},
		{"0", "", "", ""},
		{"10", "9223372036854775800", "", ""},
		{"10", "-5", "", ""},
		{"", "abc", "", ""},
		{"5", "3", token, "sale"},
		{"46", "", token, ""},
		{"7", "", ens.LabelHash("no-such-name").Hex(), ""},
		{"1", "229", "", "listing"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, limit, cursor, tokenID, eventType string) {
		q := url.Values{}
		for k, v := range map[string]string{"limit": limit, "cursor": cursor, "token_id": tokenID, "event_type": eventType} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?"+q.Encode(), nil))

		lim, cur, ok := int64(50), int64(0), true
		if limit != "" {
			n, err := strconv.ParseInt(limit, 10, 64)
			ok = err == nil && n >= 1 && n <= 200
			lim = n
		}
		if cursor != "" {
			n, err := strconv.ParseInt(cursor, 10, 64)
			ok = ok && err == nil && n >= 0
			cur = n
		}
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("limit %q cursor %q: status %d, want 400", limit, cursor, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, want 200; body %.200s", rec.Code, rec.Body.String())
		}

		var matched []Event
		for _, e := range all {
			if (tokenID == "" || e.TokenID == tokenID) && (eventType == "" || e.EventType == eventType) {
				matched = append(matched, e)
			}
		}
		want := []Event{}
		next := ""
		if cur < int64(len(matched)) {
			end := min(cur+lim, int64(len(matched)))
			want = matched[cur:end]
			if end < int64(len(matched)) {
				next = strconv.FormatInt(end, 10)
			}
		}

		var got eventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("decode page: %v", err)
		}
		if !reflect.DeepEqual(got.AssetEvents, want) {
			t.Fatalf("page of %d events differs from the reference's %d", len(got.AssetEvents), len(want))
		}
		if got.Next != next {
			t.Fatalf("next = %q, want %q", got.Next, next)
		}
	})
}
