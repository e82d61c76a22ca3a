package dataset

import (
	"context"
	"fmt"
	"strings"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// StoreSource adapts an in-process subgraph store to RegistrationSource,
// using the same id_gt cursor paging as the HTTP client so local and
// remote assembly follow identical code paths.
type StoreSource struct {
	Store    *subgraph.Store
	PageSize int
}

// PageAll implements RegistrationSource.
func (s *StoreSource) PageAll(ctx context.Context, collection string, fields []string) ([]subgraph.Entity, error) {
	pageSize := s.PageSize
	if pageSize <= 0 || pageSize > subgraph.MaxPageSize {
		pageSize = subgraph.MaxPageSize
	}
	var out []subgraph.Entity
	cursor := ""
	fieldList := strings.Join(fields, " ")
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		query := fmt.Sprintf(`{ %s(first: %d, orderBy: id, where: {id_gt: %q}) { id %s } }`,
			collection, pageSize, cursor, fieldList)
		q, err := subgraph.Parse(query)
		if err != nil {
			return nil, err
		}
		data, err := s.Store.ExecuteContext(ctx, q)
		if err != nil {
			return nil, err
		}
		rows := data[collection]
		for _, r := range rows {
			out = append(out, r.AsEntity())
		}
		if len(rows) < pageSize {
			return out, nil
		}
		cursor = rows[len(rows)-1].ID()
	}
}

// ChainSource adapts a chain directly to TxSource.
type ChainSource struct {
	Chain  *chain.Chain
	Labels etherscan.Labels
}

// TxList implements TxSource.
func (c *ChainSource) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	txs := c.Chain.TxsByAddress(addr)
	out := make([]etherscan.TxRecord, len(txs))
	for i, tx := range txs {
		out[i] = etherscan.Record(tx)
	}
	return out, nil
}

// FetchLabels implements TxSource.
func (c *ChainSource) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	return c.Labels, ctx.Err()
}

// MarketEventsSource adapts a world's marketplace stream to MarketSource.
type MarketEventsSource struct {
	byToken map[ethtypes.Hash][]opensea.Event
}

// NewMarketEventsSource indexes world marketplace events.
func NewMarketEventsSource(events []world.OpenSeaEvent) *MarketEventsSource {
	m := &MarketEventsSource{byToken: make(map[ethtypes.Hash][]opensea.Event)}
	for _, ev := range events {
		e := opensea.Event{
			TokenID:   ev.TokenID.Hex(),
			Name:      ev.Label + ".eth",
			Seller:    ev.Seller.Hex(),
			PriceUSD:  ev.PriceUSD,
			Timestamp: ev.Timestamp,
		}
		switch ev.Kind {
		case world.OSList:
			e.EventType = "listing"
		case world.OSSale:
			e.EventType = "sale"
			e.Buyer = ev.Buyer.Hex()
		}
		m.byToken[ev.TokenID] = append(m.byToken[ev.TokenID], e)
	}
	return m
}

// EventsForToken implements MarketSource.
func (m *MarketEventsSource) EventsForToken(ctx context.Context, tokenID ethtypes.Hash) ([]opensea.Event, error) {
	return m.byToken[tokenID], ctx.Err()
}

// LabelsFromWorld converts a world's custodial pools to Etherscan labels.
func LabelsFromWorld(res *world.Result) etherscan.Labels {
	var labels etherscan.Labels
	for _, a := range res.CoinbaseAddrs {
		labels.Coinbase = append(labels.Coinbase, a.Hex())
	}
	for _, a := range res.OtherCustodialAddrs {
		labels.OtherCustodial = append(labels.OtherCustodial, a.Hex())
	}
	return labels
}

// FromWorld assembles a dataset directly from an in-memory world, without
// HTTP, using the same Build pipeline as the remote path.
func FromWorld(ctx context.Context, res *world.Result, opts BuildOptions) (*Dataset, error) {
	if opts.Start == 0 {
		opts.Start = res.Config.Start
	}
	if opts.End == 0 {
		opts.End = res.Config.End
	}
	return Build(ctx,
		&StoreSource{Store: subgraph.BuildIndex(res.Chain)},
		&ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)},
		NewMarketEventsSource(res.OpenSea),
		opts)
}
