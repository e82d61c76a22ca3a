package subgraph

import (
	"log/slog"
	"net/http"

	"ensdropcatch/internal/httpjson"
)

// Server exposes a Store over HTTP with a GraphQL-style POST endpoint.
// Request body: {"query": "..."}; response: {"data": {...}} or
// {"errors": [{"message": "..."}]}, matching The Graph's envelope.
// Responses are serialized through the pooled append path in encode.go;
// the per-request JSON work is the body decode and one buffered write.
type Server struct {
	store *Store
	log   *slog.Logger
}

// NewServer wraps a store. A nil logger disables logging.
func NewServer(store *Store, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Server{store: store, log: logger}
}

type gqlRequest struct {
	Query string `json:"query"`
}

type gqlError struct {
	Message string `json:"message"`
}

// gqlResponse is the response envelope. It is serialized by
// appendResponse, not reflection; keep the two in sync.
type gqlResponse struct {
	Data   map[string][]Row
	Errors []gqlError
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req gqlRequest
	if status, err := httpjson.DecodeRequest(w, r, &req); err != nil {
		s.writeJSON(w, status, &gqlResponse{Errors: []gqlError{{Message: "invalid request body: " + err.Error()}}})
		return
	}
	q, err := Parse(req.Query)
	if err != nil {
		s.writeJSON(w, http.StatusOK, &gqlResponse{Errors: []gqlError{{Message: err.Error()}}})
		return
	}
	data, err := s.store.ExecuteContext(r.Context(), q)
	if err != nil {
		s.writeJSON(w, http.StatusOK, &gqlResponse{Errors: []gqlError{{Message: err.Error()}}})
		return
	}
	s.writeJSON(w, http.StatusOK, &gqlResponse{Data: data})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body *gqlResponse) {
	bp := httpjson.GetSlice()
	*bp = appendResponse(*bp, body)
	err := httpjson.WriteBody(w, status, *bp)
	httpjson.PutSlice(bp)
	if err != nil {
		s.log.Error("subgraph: write response", "err", err)
	}
}
