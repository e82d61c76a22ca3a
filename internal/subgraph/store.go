package subgraph

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ens"
)

// MaxPageSize is The Graph's hard cap on `first` (rows per query).
const MaxPageSize = 1000

// Entity is one indexed record: flat string/int fields keyed by name.
// Missing fields are absent from the map (GraphQL null).
type Entity map[string]any

// ID returns the entity id (always present).
func (e Entity) ID() string {
	id, _ := e["id"].(string)
	return id
}

// Field is one projected column of a result Row.
type Field struct {
	Name  string
	Value any
}

// Row is a projected query result: the requested fields sorted by name,
// exactly the key order encoding/json produced back when rows were
// maps, so serialized pages are byte-identical to the map era — without
// allocating a map per row on the serve path. Absent fields are present
// with a nil Value (GraphQL null).
type Row []Field

// ID returns the row's id field ("" when not selected).
func (r Row) ID() string {
	id, _ := r.Get("id")
	s, _ := id.(string)
	return s
}

// Get returns the named field's value and whether it was selected.
// Rows are small (a handful of fields), so a linear scan wins over any
// index structure.
func (r Row) Get(name string) (any, bool) {
	for _, f := range r {
		if f.Name == name {
			return f.Value, true
		}
	}
	return nil, false
}

// AsEntity converts the row back to the map form batch consumers (the
// dataset builder's in-process source) work with. Serve-path callers
// should stay on Row; this allocates the map Row exists to avoid.
func (r Row) AsEntity() Entity {
	e := make(Entity, len(r))
	for _, f := range r {
		e[f.Name] = f.Value
	}
	return e
}

// MarshalJSON renders the row as the JSON object its field order
// dictates; used by tests and any caller that round-trips rows through
// encoding/json (the server writes rows through the faster append path).
func (r Row) MarshalJSON() ([]byte, error) {
	return appendRow(nil, r), nil
}

// Store holds the indexed entity collections, each sorted by id.
type Store struct {
	mu          sync.RWMutex
	collections map[string][]Entity
}

// Collections available in the store (mirroring the ENS subgraph's
// entities the paper consumed).
const (
	// ColRegistrations is the current registration record per name.
	ColRegistrations = "registrations"
	// ColEvents is the full registration event history (NameRegistered,
	// NameRenewed, NameTransferred).
	ColEvents = "registrationEvents"
	// ColDomains maps namehash nodes to resolution records.
	ColDomains = "domains"
	// ColSubdomains holds registry subnode records (pay.gold.eth).
	ColSubdomains = "subdomains"
)

// indexedEvents are the event names the ENS subgraph consumes.
var indexedEvents = []string{"NameRegistered", "NameRenewed", "NameTransferred", "AddrChanged", "NewOwner"}

// BuildIndex folds the chain's full event history into a Store, the way
// the ENS subgraph indexes mainnet.
func BuildIndex(c *chain.Chain) *Store {
	s := &Store{collections: map[string][]Entity{
		ColRegistrations: nil,
		ColEvents:        nil,
		ColDomains:       nil,
		ColSubdomains:    nil,
	}}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Registrations and domains are appended once, when first seen, and
	// later events update the same entity in place.
	regs := map[string]Entity{}    // labelhash -> registration entity
	domains := map[string]Entity{} // node -> domain entity

	for _, l := range c.FilterLogs(chain.LogFilter{Events: indexedEvents}) {
		switch l.Event {
		case "NameRegistered":
			lh := l.Topics[0]
			id := lh.Hex()
			node := ens.NodeFromLabelHash(lh).Hex()
			reg, ok := regs[id]
			if !ok {
				reg = Entity{"id": id, "domain": node}
				regs[id] = reg
				s.append(ColRegistrations, reg)
			}
			if name, ok := l.Data["name"]; ok {
				reg["labelName"] = name
			}
			reg["registrant"] = l.Data["owner"]
			reg["registrationDate"] = l.Timestamp
			reg["expiryDate"] = atoi(l.Data["expires"])
			reg["cost"] = l.Data["costWei"]
			d, ok := domains[node]
			if !ok {
				d = Entity{"id": node, "createdAt": l.Timestamp, "labelhash": id}
				domains[node] = d
				s.append(ColDomains, d)
			}
			if name, ok := l.Data["name"]; ok {
				d["labelName"] = name
				d["name"] = name + ".eth"
			}
			d["owner"] = l.Data["owner"]
			s.append(ColEvents, Entity{
				"id":          eventID(l),
				"type":        "NameRegistered",
				"label":       id,
				"labelName":   orNil(l.Data, "name"),
				"registrant":  l.Data["owner"],
				"expiryDate":  atoi(l.Data["expires"]),
				"costWei":     l.Data["costWei"],
				"premiumWei":  l.Data["premium"],
				"timestamp":   l.Timestamp,
				"blockNumber": int64(l.BlockNumber),
				"txHash":      l.TxHash.Hex(),
			})
		case "NameRenewed":
			lh := l.Topics[0]
			id := lh.Hex()
			if reg, ok := regs[id]; ok {
				reg["expiryDate"] = atoi(l.Data["expires"])
			}
			s.append(ColEvents, Entity{
				"id":          eventID(l),
				"type":        "NameRenewed",
				"label":       id,
				"labelName":   orNil(l.Data, "name"),
				"expiryDate":  atoi(l.Data["expires"]),
				"costWei":     l.Data["costWei"],
				"timestamp":   l.Timestamp,
				"blockNumber": int64(l.BlockNumber),
				"txHash":      l.TxHash.Hex(),
			})
		case "NameTransferred":
			lh := l.Topics[0]
			id := lh.Hex()
			if reg, ok := regs[id]; ok {
				reg["registrant"] = l.Data["newOwner"]
			}
			s.append(ColEvents, Entity{
				"id":          eventID(l),
				"type":        "NameTransferred",
				"label":       id,
				"labelName":   orNil(l.Data, "name"),
				"newOwner":    l.Data["newOwner"],
				"timestamp":   l.Timestamp,
				"blockNumber": int64(l.BlockNumber),
				"txHash":      l.TxHash.Hex(),
			})
		case "AddrChanged":
			node := l.Topics[0].Hex()
			d, ok := domains[node]
			if !ok {
				d = Entity{"id": node, "createdAt": l.Timestamp}
				domains[node] = d
				s.append(ColDomains, d)
			}
			d["resolvedAddress"] = l.Data["addr"]
		case "NewOwner":
			// Registry subnode creation (subdomains).
			e := Entity{
				"id":        l.Topics[0].Hex(),
				"parent":    l.Data["parent"],
				"labelhash": l.Data["label"],
				"owner":     l.Data["owner"],
				"createdAt": l.Timestamp,
			}
			if name, ok := l.Data["name"]; ok {
				e["name"] = name + ".eth"
			}
			s.append(ColSubdomains, e)
		}
	}
	s.sortAll()
	return s
}

func eventID(l *chain.Log) string {
	return fmt.Sprintf("%s-%06d", l.TxHash.Hex(), l.Index)
}

func orNil(m map[string]string, key string) any {
	if v, ok := m[key]; ok {
		return v
	}
	return nil
}

func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

func (s *Store) append(col string, e Entity) {
	s.collections[col] = append(s.collections[col], e)
}

func (s *Store) sortAll() {
	for _, list := range s.collections {
		sort.Slice(list, func(i, j int) bool { return list[i].ID() < list[j].ID() })
	}
}

// Len returns the number of entities in a collection.
func (s *Store) Len(col string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.collections[col])
}

// ExecuteContext runs a parsed query against the store and returns one
// result list per top-level selection, keyed by selection name. Scans
// abandon work as soon as the caller's deadline (propagated by the
// server's overload middleware) expires, instead of filtering rows for
// a caller that has already given up. There is deliberately no
// context-free variant: every production caller holds a request or
// crawl context, and a fresh context.Background() here would detach
// the scan from it.
func (s *Store) ExecuteContext(ctx context.Context, q *Query) (map[string][]Row, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]Row, len(q.Selections))
	for _, sel := range q.Selections {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		list, ok := s.collections[sel.Name]
		if !ok {
			return nil, fmt.Errorf("subgraph: unknown collection %q", sel.Name)
		}
		rows, err := applySelection(ctx, list, sel)
		if err != nil {
			return nil, err
		}
		out[sel.Name] = rows
	}
	return out, nil
}

func applySelection(ctx context.Context, list []Entity, sel *Selection) ([]Row, error) {
	if len(sel.Fields) == 0 {
		return nil, fmt.Errorf("subgraph: selection %q needs a field set", sel.Name)
	}
	// Resolve the projected field order once per selection, not per row:
	// sorted and deduplicated, matching the map-key order the JSON
	// encoder used to impose.
	names := make([]string, len(sel.Fields))
	for i, f := range sel.Fields {
		names[i] = f.Name
	}
	sort.Strings(names)
	names = dedupSorted(names)
	first := int64(100) // The Graph's default page size
	skip := int64(0)
	var where map[string]Value
	for k, v := range sel.Args {
		switch k {
		case "first":
			if v.Kind != KindInt {
				return nil, fmt.Errorf("subgraph: first must be an int")
			}
			first = v.Int
		case "skip":
			if v.Kind != KindInt {
				return nil, fmt.Errorf("subgraph: skip must be an int")
			}
			skip = v.Int
		case "where":
			if v.Kind != KindObject {
				return nil, fmt.Errorf("subgraph: where must be an object")
			}
			where = v.Obj
		case "orderBy":
			if v.Str != "id" {
				return nil, fmt.Errorf("subgraph: only orderBy: id is supported")
			}
		default:
			return nil, fmt.Errorf("subgraph: unsupported argument %q", k)
		}
	}
	if first < 0 || first > MaxPageSize {
		return nil, fmt.Errorf("subgraph: first must be in [0, %d]", MaxPageSize)
	}
	if skip < 0 {
		return nil, fmt.Errorf("subgraph: skip must be non-negative")
	}

	// Fast path: a lone id_gt filter seeks directly into the sorted list
	// (this is why cursor paging beats offset paging at scale).
	start := 0
	if len(where) == 1 {
		if v, ok := where["id_gt"]; ok && v.Kind == KindString {
			start = sort.Search(len(list), func(i int) bool { return list[i].ID() > v.Str })
			where = nil
		}
	}

	var rows []Row
	for i, e := range list[start:] {
		if i%4096 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !matchWhere(e, where) {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		rows = append(rows, project(e, names))
		if int64(len(rows)) >= first {
			break
		}
	}
	return rows, nil
}

// dedupSorted removes adjacent duplicates in place (a field selected
// twice projects once, as it did when rows were maps).
func dedupSorted(names []string) []string {
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

func matchWhere(e Entity, where map[string]Value) bool {
	for key, v := range where {
		field, op := key, "eq"
		for _, suffix := range []string{"_gt", "_gte", "_lt", "_lte"} {
			if strings.HasSuffix(key, suffix) {
				field, op = strings.TrimSuffix(key, suffix), suffix[1:]
				break
			}
		}
		got, present := e[field]
		if !present {
			return false
		}
		if !compare(got, v, op) {
			return false
		}
	}
	return true
}

func compare(got any, want Value, op string) bool {
	switch g := got.(type) {
	case string:
		w := want.Str
		switch op {
		case "eq":
			return g == w
		case "gt":
			return g > w
		case "gte":
			return g >= w
		case "lt":
			return g < w
		case "lte":
			return g <= w
		}
	case int64:
		if want.Kind != KindInt {
			return false
		}
		switch op {
		case "eq":
			return g == want.Int
		case "gt":
			return g > want.Int
		case "gte":
			return g >= want.Int
		case "lt":
			return g < want.Int
		case "lte":
			return g <= want.Int
		}
	}
	return false
}

// project copies only the requested fields, in the given (sorted)
// order. Requesting an absent field yields an explicit null (JSON
// null), like GraphQL. One slice allocation per row — the maps this
// replaced were the dominant serve-path allocator.
func project(e Entity, names []string) Row {
	out := make(Row, len(names))
	for i, n := range names {
		v := e[n] // absent -> nil, the explicit null
		out[i] = Field{Name: n, Value: v}
	}
	return out
}
