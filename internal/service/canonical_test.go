package service

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func mustResolve(t *testing.T, r *Request) *resolved {
	t.Helper()
	rr, err := r.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return rr
}

func keyOf(t *testing.T, r *Request) string {
	t.Helper()
	return canonicalKey(mustResolve(t, r))
}

func keyOfJSON(t *testing.T, body string) string {
	t.Helper()
	var r Request
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	return keyOf(t, &r)
}

func intp(v int) *int { return &v }

func TestCanonicalKeyNodeOrderInvariance(t *testing.T) {
	sorted := &Request{
		Network: NetworkSpec{Nodes: []NodeSpec{
			{ID: intp(0), X: 0, Y: 0},
			{ID: intp(1), X: 1, Y: 0},
			{ID: intp(2), X: 0, Y: 1},
			{ID: intp(3), X: 1, Y: 1},
		}},
		Options: OptionsSpec{MaxWL: 3},
	}
	shuffled := &Request{
		Network: NetworkSpec{Nodes: []NodeSpec{
			{ID: intp(3), X: 1, Y: 1},
			{ID: intp(0), X: 0, Y: 0},
			{ID: intp(2), X: 0, Y: 1},
			{ID: intp(1), X: 1, Y: 0},
		}},
		Options: OptionsSpec{MaxWL: 3},
	}
	if a, b := keyOf(t, sorted), keyOf(t, shuffled); a != b {
		t.Errorf("node listing order changed the key:\n  %s\n  %s", a, b)
	}
}

func TestCanonicalKeyFloatFormattingInvariance(t *testing.T) {
	const tmpl = `{
		"network": {"nodes": [
			{"id": 0, "x": 0, "y": 0},
			{"id": 1, "x": XVAL, "y": 0},
			{"id": 2, "x": 0, "y": 1}
		]},
		"options": {"maxWL": 2}
	}`
	base := keyOfJSON(t, strings.ReplaceAll(tmpl, "XVAL", "2"))
	for _, lit := range []string{"2.0", "2e0", "2.000", "0.2e1"} {
		if k := keyOfJSON(t, strings.ReplaceAll(tmpl, "XVAL", lit)); k != base {
			t.Errorf("float literal %s changed the key:\n  %s\n  %s", lit, base, k)
		}
	}
	if k := keyOfJSON(t, strings.ReplaceAll(tmpl, "XVAL", "2.5")); k == base {
		t.Error("different coordinate produced the same key")
	}
}

func TestCanonicalKeyTrafficNormalization(t *testing.T) {
	mk := func(traffic []SignalSpec) *Request {
		return &Request{
			Network: NetworkSpec{Standard: 8},
			Options: OptionsSpec{MaxWL: 4, Traffic: traffic},
		}
	}
	a := keyOf(t, mk([]SignalSpec{{0, 1}, {2, 3}, {1, 0}}))
	b := keyOf(t, mk([]SignalSpec{{2, 3}, {1, 0}, {0, 1}, {2, 3}})) // reordered + dup
	if a != b {
		t.Errorf("traffic order/duplicates changed the key:\n  %s\n  %s", a, b)
	}
	c := keyOf(t, mk([]SignalSpec{{0, 1}, {2, 3}}))
	if a == c {
		t.Error("dropping a traffic demand kept the same key")
	}
}

func TestCanonicalKeyStandardEqualsExplicitNodes(t *testing.T) {
	std := &Request{Network: NetworkSpec{Standard: 8}, Options: OptionsSpec{MaxWL: 4}}
	net := mustResolve(t, std).net
	explicit := &Request{Options: OptionsSpec{MaxWL: 4}}
	explicit.Network.DieW, explicit.Network.DieH = net.DieW, net.DieH
	for _, n := range net.Nodes {
		id := n.ID
		explicit.Network.Nodes = append(explicit.Network.Nodes,
			NodeSpec{ID: &id, Name: n.Name, X: n.Pos.X, Y: n.Pos.Y})
	}
	if a, b := keyOf(t, std), keyOf(t, explicit); a != b {
		t.Errorf("standard floorplan and its explicit listing hash differently:\n  %s\n  %s", a, b)
	}
}

func TestCanonicalKeyDistinguishesOptions(t *testing.T) {
	base := func() *Request {
		return &Request{Network: NetworkSpec{Standard: 8}, Options: OptionsSpec{MaxWL: 4}}
	}
	k0 := keyOf(t, base())
	variants := map[string]*Request{}
	r := base()
	r.Options.MaxWL = 5
	variants["maxWL"] = r
	r = base()
	r.Options.ShareWavelengths = true
	variants["shareWavelengths"] = r
	r = base()
	r.Options.WithPDN = true
	variants["withPDN"] = r
	r = base()
	r.Options.Params = "tableI"
	variants["params"] = r
	r = base()
	r.Options.DisableShortcuts = true
	variants["disableShortcuts"] = r
	r = base()
	r.Options.MaxWL = 0 // sweep mode
	variants["sweep"] = r
	seen := map[string]string{k0: "base"}
	for name, v := range variants {
		k := keyOf(t, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}
}

func TestCanonicalKeyShape(t *testing.T) {
	k := keyOf(t, &Request{Network: NetworkSpec{Standard: 8}, Options: OptionsSpec{MaxWL: 4}})
	if !strings.HasPrefix(k, "sha256:") || len(k) != len("sha256:")+64 {
		t.Errorf("key %q is not sha256:<64 hex>", k)
	}
}

// FuzzCanonicalKey: arbitrary request JSON never makes CanonicalKey
// panic, and a request that resolves keeps its key when its explicitly
// numbered nodes are listed in another order, or its traffic entries
// are reordered and duplicated. seed drives the permutation. Seeds live
// in testdata/fuzz/FuzzCanonicalKey.
func FuzzCanonicalKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		key, err := CanonicalKey(&req)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		alt := req
		explicit := len(req.Network.Nodes) > 0
		for _, n := range req.Network.Nodes {
			explicit = explicit && n.ID != nil
		}
		if explicit {
			nodes := append([]NodeSpec(nil), req.Network.Nodes...)
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			alt.Network.Nodes = nodes
		}
		if n := len(req.Options.Traffic); n > 0 {
			traffic := append([]SignalSpec(nil), req.Options.Traffic...)
			traffic = append(traffic, traffic[rng.Intn(n)])
			rng.Shuffle(len(traffic), func(i, j int) { traffic[i], traffic[j] = traffic[j], traffic[i] })
			alt.Options.Traffic = traffic
		}
		altKey, err := CanonicalKey(&alt)
		if err != nil {
			t.Fatalf("permuted request no longer resolves: %v", err)
		}
		if altKey != key {
			t.Fatalf("permuting nodes or traffic changed the key:\n  %s\n  %s", key, altKey)
		}
	})
}
