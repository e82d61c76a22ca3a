package subgraph

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ensdropcatch/internal/world"
)

func TestParseBasicQuery(t *testing.T) {
	q, err := Parse(`query { registrations(first: 10, where: {id_gt: "0xab"}) { id labelName domain { name } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selections) != 1 {
		t.Fatalf("selections = %d", len(q.Selections))
	}
	sel := q.Selections[0]
	if sel.Name != "registrations" {
		t.Errorf("name = %q", sel.Name)
	}
	if sel.Args["first"].Int != 10 {
		t.Errorf("first = %+v", sel.Args["first"])
	}
	if sel.Args["where"].Obj["id_gt"].Str != "0xab" {
		t.Errorf("where = %+v", sel.Args["where"])
	}
	if len(sel.Fields) != 3 || sel.Fields[2].Name != "domain" || len(sel.Fields[2].Fields) != 1 {
		t.Errorf("fields = %+v", sel.Fields)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "{}", `{ regs(first: ) { id } }`,
		`{ regs { id } } trailing`, `{ regs(first: 1 { id } }`,
		`{ regs(x: "unterminated) { id } }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseToleratesCommasAndComments(t *testing.T) {
	src := `
# full history
{
  registrationEvents(first: 5, skip: 2) { id, type, timestamp }
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.Selections[0].Args["skip"].Int != 2 {
		t.Error("skip lost")
	}
}

func smallStore(t *testing.T) (*Store, *world.Result) {
	t.Helper()
	res, err := world.Generate(world.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	return BuildIndex(res.Chain), res
}

func TestBuildIndexCounts(t *testing.T) {
	store, res := smallStore(t)
	if got, want := store.Len(ColRegistrations), countUniqueLabels(res); got != want {
		t.Errorf("registrations = %d, want %d", got, want)
	}
	if store.Len(ColEvents) < store.Len(ColRegistrations) {
		t.Error("fewer events than registrations")
	}
	if store.Len(ColDomains) == 0 {
		t.Error("no domains indexed")
	}

	// Every entity of every collection, pinned: no crawl reads the
	// registrations or domains collections, so nothing else would see
	// BuildIndex change them.
	want := map[string]struct {
		n      int
		digest string
	}{
		ColRegistrations: {400, "608049e0de1779a3a777482572a422792869b292fcd004b19d70b6c5e80a9909"},
		ColEvents:        {640, "5df5251313b41e2fa24dd57c93abec3a683f9b4edf7673a0d216d355ab5363dd"},
		ColDomains:       {494, "9c3535028f23c0e6d1b9a0ee31c18a9b7fe5110aef3d83a71509bfe4f359b83b"},
		ColSubdomains:    {94, "a75cf8d26888ed169c0868739a3799c083a155346af31b831b8008ee487065ab"},
	}
	for col, w := range want {
		n, digest := collectionDigest(store, col)
		if n != w.n || digest != w.digest {
			t.Errorf("%s: %d entities, digest %s; want %d, %s", col, n, digest, w.n, w.digest)
		}
	}
}

// collectionDigest hashes a collection in store order, one line per
// entity, each entity rendered with all its fields in name order.
func collectionDigest(s *Store, col string) (int, string) {
	h := sha256.New()
	list := s.collections[col]
	for _, e := range list {
		keys := make([]string, 0, len(e))
		for k := range e {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.Write(append(appendRow(nil, project(e, keys)), '\n'))
	}
	return len(list), hex.EncodeToString(h.Sum(nil))
}

func countUniqueLabels(res *world.Result) int {
	return len(res.Truth.Domains)
}

func TestExecuteFiltersAndPages(t *testing.T) {
	store, _ := smallStore(t)
	q, err := Parse(`{ registrationEvents(first: 50, orderBy: id, where: {id_gt: ""}) { id type timestamp } }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := store.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := out[ColEvents]
	if len(rows) != 50 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ID() <= rows[i-1].ID() {
			t.Fatal("rows not ordered by id")
		}
	}
	// Typed filter.
	q, _ = Parse(`{ registrationEvents(first: 1000, where: {type: "NameRenewed"}) { id type } }`)
	out, err = store.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out[ColEvents] {
		if typ, _ := r.Get("type"); typ != "NameRenewed" {
			t.Fatalf("filter leaked %v", typ)
		}
	}
}

func TestExecuteRejectsBadQueries(t *testing.T) {
	store, _ := smallStore(t)
	bad := []string{
		`{ nosuch(first: 1) { id } }`,
		`{ registrations(first: 5000) { id } }`,
		`{ registrations(first: -1) { id } }`,
		`{ registrations(skip: -1) { id } }`,
		`{ registrations(orderBy: name) { id } }`,
		`{ registrations(magic: 1) { id } }`,
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := store.Execute(q); err == nil {
			t.Errorf("Execute(%q) succeeded", src)
		}
	}
}

func TestUnindexedNamesHaveNullLabel(t *testing.T) {
	store, res := smallStore(t)
	wantNull := 0
	for _, d := range res.Truth.Domains {
		// A later controller registration reveals the label, so only
		// single-cycle legacy names stay null.
		if d.Unindexed && len(d.Cycles) == 1 {
			wantNull++
		}
	}
	if wantNull == 0 {
		t.Skip("no unindexed names in this world")
	}
	q, _ := Parse(`{ registrations(first: 1000, where: {id_gt: ""}) { id labelName } }`)
	nulls := 0
	cursor := ""
	for {
		q, _ = Parse(`{ registrations(first: 1000, where: {id_gt: "` + cursor + `"}) { id labelName } }`)
		out, err := store.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := out[ColRegistrations]
		if len(rows) == 0 {
			break
		}
		for _, r := range rows {
			if name, _ := r.Get("labelName"); name == nil {
				nulls++
			}
		}
		cursor = rows[len(rows)-1].ID()
	}
	if nulls != wantNull {
		t.Errorf("null labelName rows = %d, want %d", nulls, wantNull)
	}
}

func TestServerAndClientPaging(t *testing.T) {
	store, res := smallStore(t)
	srv := httptest.NewServer(NewServer(store, nil))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.PageSize = 97 // force multiple pages with an awkward size
	rows, err := client.PageAll(context.Background(), ColRegistrations, []string{"labelName", "registrant", "expiryDate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Truth.Domains) {
		t.Errorf("paged %d registrations, want %d", len(rows), len(res.Truth.Domains))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.ID()] {
			t.Fatalf("duplicate row %s across pages", r.ID())
		}
		seen[r.ID()] = true
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	store, _ := smallStore(t)
	srv := httptest.NewServer(NewServer(store, nil))
	defer srv.Close()

	client := NewClient(srv.URL)
	if _, err := client.Query(context.Background(), "not graphql"); err == nil {
		t.Error("garbage query succeeded")
	}
	if _, err := client.Query(context.Background(), `{ nosuch(first: 1) { id } }`); err == nil {
		t.Error("unknown collection succeeded")
	}
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse(src) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickParserRoundTripFirst(t *testing.T) {
	f := func(n uint16) bool {
		q, err := Parse(`{ registrations(first: ` + itoa(int64(n)) + `) { id } }`)
		if err != nil {
			return false
		}
		return q.Selections[0].Args["first"].Int == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func itoa(n int64) string {
	var b strings.Builder
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b.WriteByte(digits[i])
	}
	return b.String()
}
