package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
)

// Document model. Every document is
//
//	{"labels":{"rR":1,"sS":1,"tT":1},"meta":{["rare":1,]"region":R,"seq":S,"tenant":T},
//	 "payload":{...},"tags":["rR","sS","tT"]}
//
// The header (labels, meta and tags) is a pure function of the sequence number
// S, so the answer of every header query is known without evaluating
// anything: tenant splits the collection 1/64, region 1/5, tenant and
// region together 1/320 (64 and 5 are coprime), the rare marker sits on
// 1/128 and seq is unique. The payload is a random nested object drawn
// from the run's seed, S and the document's version, so an overwrite
// keeps the header and changes only the payload. Keys are emitted
// sorted and compact: the text is the store's canonical rendering,
// which is what GET /docs/{id} must return byte for byte. The labels
// object carries the header constants as keys, because a JSONPath
// filter tests array elements only and array elements are not
// indexed: $.labels.sS is JSONPath's selective, indexed point query.
const (
	tenants   = 64
	regions   = 5
	rareEvery = 128
)

func tenantOf(s int) int { return s % tenants }
func regionOf(s int) int { return s % regions }
func isRare(s int) bool  { return mix64(uint64(s)+0x9e37)%rareEvery == 0 }

// docID is the id bulk ingest assigns to the S-th line loaded into an
// empty store; set-up checks the store agrees.
func docID(s int) string { return fmt.Sprintf("d%08d", s) }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb93e53ca1a85
	x ^= x >> 33
	return x
}

var payloadKeys = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// docText renders version v of document s.
func docText(seed uint64, s, v int) string {
	b := make([]byte, 0, 512)
	b = append(b, `{"labels":{"r`...)
	b = strconv.AppendInt(b, int64(regionOf(s)), 10)
	b = append(b, `":1,"s`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `":1,"t`...)
	b = strconv.AppendInt(b, int64(tenantOf(s)), 10)
	b = append(b, `":1},"meta":{`...)
	if isRare(s) {
		b = append(b, `"rare":1,`...)
	}
	b = append(b, `"region":`...)
	b = strconv.AppendInt(b, int64(regionOf(s)), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `,"tenant":`...)
	b = strconv.AppendInt(b, int64(tenantOf(s)), 10)
	b = append(b, `},"payload":`...)
	r := rand.New(rand.NewPCG(seed, uint64(s)<<16|uint64(v)))
	b = payloadObject(r, b, 0, 3+r.IntN(4))
	b = append(b, `,"tags":["r`...)
	b = strconv.AppendInt(b, int64(regionOf(s)), 10)
	b = append(b, `","s`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `","t`...)
	b = strconv.AppendInt(b, int64(tenantOf(s)), 10)
	b = append(b, `"]}`...)
	return string(b)
}

func payloadObject(r *rand.Rand, b []byte, depth, n int) []byte {
	perm := r.Perm(len(payloadKeys))[:n]
	sort.Ints(perm)
	b = append(b, '{')
	for i, k := range perm {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, payloadKeys[k]...)
		b = append(b, `":`...)
		b = payloadValue(r, b, depth+1)
	}
	return append(b, '}')
}

func payloadValue(r *rand.Rand, b []byte, depth int) []byte {
	x := r.IntN(100)
	switch {
	case depth < 3 && x < 25:
		return payloadObject(r, b, depth, 2+r.IntN(3))
	case depth < 3 && x < 40:
		n := 1 + r.IntN(4)
		b = append(b, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = payloadValue(r, b, depth+1)
		}
		return append(b, ']')
	case x < 70:
		return strconv.AppendInt(b, int64(r.IntN(1000)), 10)
	default:
		b = append(b, `"w`...)
		b = strconv.AppendInt(b, int64(r.IntN(64)), 10)
		return append(b, '"')
	}
}

// query is one request body plus the answer the generator expects.
type query struct {
	class  string // "adhoc", "dash", "scan" or "first"
	lang   string
	text   string
	mode   string // "find" or "select"
	values bool
	// match decides membership from the header alone; set for every
	// query whose answer is a header predicate, which is what lets the
	// write-mix check answers while documents are inserted.
	match func(s int) bool
	// want is the expected sorted id list (find) and wantSel the
	// expected selection (select), fixed at generation time.
	want    []string
	wantSel []selRow
}

type selRow struct {
	ID     string   `json:"id"`
	Values []string `json:"values"`
}

func (q *query) body() []byte {
	b, _ := json.Marshal(struct {
		Lang   string `json:"lang"`
		Query  string `json:"query"`
		Mode   string `json:"mode"`
		Values bool   `json:"values,omitempty"`
	}{q.lang, q.text, q.mode, q.values})
	return b
}

// fillWant computes want for a header query over seqs [0, n).
func (q *query) fillWant(n int) {
	q.want = q.want[:0]
	for s := 0; s < n; s++ {
		if q.match(s) {
			q.want = append(q.want, docID(s))
		}
	}
}

// adhocQuery builds a query on document s whose text is unique to s,
// so it misses the plan cache. The eight forms cover all four
// languages and both modes; each answers exactly document s.
func adhocQuery(s, form int) *query {
	q := &query{class: "adhoc", mode: "find", want: []string{docID(s)}}
	tag := "s" + strconv.Itoa(s)
	switch form {
	case 0:
		q.lang, q.text = "mongo", fmt.Sprintf(`{"meta.seq": %d}`, s)
	case 1:
		q.lang, q.text = "mongo", fmt.Sprintf(`{"meta.seq": %d, "meta.tenant": %d}`, s, tenantOf(s))
	case 2:
		q.lang, q.text = "jnl", fmt.Sprintf(`eq(/meta/seq, %d)`, s)
	case 3:
		q.lang, q.text = "jnl", fmt.Sprintf(`eq(/tags/1, %q)`, tag)
	case 4:
		q.lang, q.text = "jsl", fmt.Sprintf(`some("meta", some("seq", eq(%d)))`, s)
	case 5:
		q.lang, q.text = "jsl", fmt.Sprintf(`some("labels", some(%q, eq(1)))`, tag)
	case 6:
		q.lang, q.text = "jsonpath", fmt.Sprintf(`$.labels.%s`, tag)
	default:
		q.lang, q.text, q.mode, q.values = "jsonpath", fmt.Sprintf(`$.labels.%s`, tag), "select", true
		q.want = nil
		q.wantSel = []selRow{{ID: docID(s), Values: []string{"1"}}}
	}
	return q
}

const adhocForms = 8

// dashboardPool is the fixed set of repeated header queries: 22 texts
// (well under the 256-entry plan cache) across the four languages,
// with selectivity from 1/320 (tenant and region) through 1/128
// (rare) to 1/64 (tenant). A JSONPath path names one label, so it has
// no tenant-and-region form.
func dashboardPool(seed uint64) []*query {
	r := rand.New(rand.NewPCG(seed, 0xda5))
	var pool []*query
	for _, lang := range []string{"mongo", "jnl", "jsl", "jsonpath"} {
		for i := 0; i < 3; i++ {
			pool = append(pool, tenantQuery(lang, r.IntN(tenants)))
		}
		if lang != "jsonpath" {
			for i := 0; i < 2; i++ {
				pool = append(pool, tenantRegionQuery(lang, r.IntN(tenants), r.IntN(regions)))
			}
		}
		pool = append(pool, rareQuery(lang))
	}
	return pool
}

func tenantQuery(lang string, t int) *query {
	q := &query{class: "dash", lang: lang, mode: "find", match: func(s int) bool { return tenantOf(s) == t }}
	switch lang {
	case "mongo":
		q.text = fmt.Sprintf(`{"meta.tenant": %d}`, t)
	case "jnl":
		q.text = fmt.Sprintf(`eq(/meta/tenant, %d)`, t)
	case "jsl":
		q.text = fmt.Sprintf(`some("meta", some("tenant", eq(%d)))`, t)
	default:
		q.text = fmt.Sprintf(`$.labels.t%d`, t)
	}
	return q
}

func tenantRegionQuery(lang string, t, reg int) *query {
	q := &query{class: "dash", lang: lang, mode: "find", match: func(s int) bool { return tenantOf(s) == t && regionOf(s) == reg }}
	switch lang {
	case "mongo":
		q.text = fmt.Sprintf(`{"meta.tenant": %d, "meta.region": %d}`, t, reg)
	case "jnl":
		q.text = fmt.Sprintf(`eq(/meta/tenant, %d) && eq(/meta/region, %d)`, t, reg)
	default:
		q.text = fmt.Sprintf(`some("meta", some("tenant", eq(%d)) && some("region", eq(%d)))`, t, reg)
	}
	return q
}

func rareQuery(lang string) *query {
	q := &query{class: "dash", lang: lang, mode: "find", match: isRare}
	switch lang {
	case "mongo":
		q.text = `{"meta.rare": 1}`
	case "jnl":
		q.text = `[/meta/rare]`
	case "jsl":
		q.text = `some("meta", some("rare", eq(1)))`
	default:
		q.text = `$.meta.rare`
	}
	return q
}

// scanSpec is one text of the scan pool with its oracle: find decides
// membership and sel renders the selected values, both computed from
// the generated document decoded by encoding/json, independently of
// the store's own parser and evaluator.
type scanSpec struct {
	lang, text, mode string
	find             func(doc map[string]any, s int) bool
	sel              func(doc map[string]any) []string
}

// scanPool is the fixed pool of 16 texts the planner answers by full
// scan or by an unselective term: negations, JSL universal and
// existential constraints, JNL descendant navigation and JSONPath
// selections whose results cover most documents.
func scanPool(seed uint64) []scanSpec {
	r := rand.New(rand.NewPCG(seed, 0x5ca))
	r1, r2, r3, t3 := r.IntN(regions), (r.IntN(regions-1)+1)%regions, r.IntN(regions), r.IntN(tenants)
	w := fmt.Sprintf("w%d", r.IntN(64))
	return []scanSpec{
		{lang: "mongo", text: fmt.Sprintf(`{"meta.region": {"$ne": %d}}`, r1),
			find: func(_ map[string]any, s int) bool { return regionOf(s) != r1 }},
		{lang: "mongo", text: fmt.Sprintf(`{"meta.region": {"$ne": %d}}`, r2),
			find: func(_ map[string]any, s int) bool { return regionOf(s) != r2 }},
		{lang: "mongo", text: fmt.Sprintf(`{"$nor": [{"meta.region": %d}, {"meta.tenant": %d}]}`, r3, t3),
			find: func(_ map[string]any, s int) bool { return regionOf(s) != r3 && tenantOf(s) != t3 }},
		{lang: "mongo", text: `{"payload.a": {"$gte": 500}}`,
			find: func(d map[string]any, _ int) bool { n, ok := obj(d, "payload")["a"].(float64); return ok && n >= 500 }},
		{lang: "jsl", text: `some("payload", all(~".*", object || array))`,
			find: func(d map[string]any, _ int) bool {
				for _, v := range obj(d, "payload") {
					if !isContainer(v) {
						return false
					}
				}
				return true
			}},
		{lang: "jsl", text: `some("payload", some(~".*", number && min(900)))`,
			find: func(d map[string]any, _ int) bool {
				for _, v := range obj(d, "payload") {
					if n, ok := v.(float64); ok && n >= 900 {
						return true
					}
				}
				return false
			}},
		{lang: "jsl", text: `some("payload", all(~".*", number || minch(2)))`,
			find: func(d map[string]any, _ int) bool {
				for _, v := range obj(d, "payload") {
					switch x := v.(type) {
					case float64:
					case map[string]any:
						if len(x) < 2 {
							return false
						}
					case []any:
						if len(x) < 2 {
							return false
						}
					default:
						return false
					}
				}
				return true
			}},
		{lang: "jsl", text: `some("tags", all([0:], string && pattern("[rst][0-9]+")))`,
			find: func(map[string]any, int) bool { return true }},
		{lang: "jnl", text: fmt.Sprintf(`[(/~".*")* <eq(eps, %q)>]`, w),
			find: func(d map[string]any, _ int) bool {
				return objWalk(d, func(_ string, v any) bool { return v == w })
			}},
		{lang: "jnl", text: `[(/~".*")* /k /[0:]]`,
			find: func(d map[string]any, _ int) bool {
				return objWalk(d, func(k string, v any) bool { a, ok := v.([]any); return k == "k" && ok && len(a) > 0 })
			}},
		{lang: "jnl", text: `[(/~".*")* /rare]`,
			find: func(_ map[string]any, s int) bool { return isRare(s) }},
		{lang: "jsonpath", text: `$..k[1]`,
			find: func(d map[string]any, _ int) bool {
				return len(collect(d, func(k string, v any) bool { a, ok := v.([]any); return k == "k" && ok && len(a) > 1 })) > 0
			}},
		{lang: "jsonpath", text: `$.meta.region`, mode: "select",
			sel: func(d map[string]any) []string { return []string{canon(obj(d, "meta")["region"])} }},
		{lang: "jsonpath", text: `$.payload..c`, mode: "select",
			sel: func(d map[string]any) []string {
				var out []string
				for _, v := range collect(obj(d, "payload"), func(k string, _ any) bool { return k == "c" }) {
					out = append(out, canon(v))
				}
				return out
			}},
		{lang: "jsonpath", text: `$.tags[*]`, mode: "select",
			sel: func(d map[string]any) []string {
				var out []string
				for _, v := range d["tags"].([]any) {
					out = append(out, canon(v))
				}
				return out
			}},
		{lang: "jsonpath", text: fmt.Sprintf(`$.payload.*[?(@ == %q)]`, w), mode: "select",
			sel: func(d map[string]any) []string {
				var out []string
				for _, v := range obj(d, "payload") {
					if a, ok := v.([]any); ok {
						for _, e := range a {
							if e == w {
								out = append(out, canon(e))
							}
						}
					}
				}
				return out
			}},
	}
}

func obj(d map[string]any, k string) map[string]any {
	m, _ := d[k].(map[string]any)
	return m
}

func isContainer(v any) bool {
	switch v.(type) {
	case map[string]any, []any:
		return true
	}
	return false
}

// objWalk reports whether test holds for some member of an object
// reachable from d through object members only, the reach of JNL's
// (/~".*")* axis, which does not enter arrays.
func objWalk(d map[string]any, test func(k string, v any) bool) bool {
	for k, v := range d {
		if test(k, v) {
			return true
		}
		if m, ok := v.(map[string]any); ok && objWalk(m, test) {
			return true
		}
	}
	return false
}

// collect returns the member values, at any depth through objects and
// arrays, whose member passes test: the reach of JSONPath's "..key".
func collect(v any, test func(k string, v any) bool) []any {
	var out []any
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				if test(k, c) {
					out = append(out, c)
				}
				walk(c)
			}
		case []any:
			for _, c := range x {
				walk(c)
			}
		}
	}
	walk(v)
	return out
}

// canon renders a decoded value in the store's canonical form: sorted
// keys, compact, integers without a fraction. json.Marshal sorts map
// keys, and the generator emits no character it would escape.
func canon(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// scanQueries turns the pool into queries with expected answers over
// documents [0, n) at version 0.
func scanQueries(seed uint64, n int) ([]*query, error) {
	pool := scanPool(seed)
	qs := make([]*query, len(pool))
	for i, p := range pool {
		mode := p.mode
		if mode == "" {
			mode = "find"
		}
		qs[i] = &query{class: "scan", lang: p.lang, text: p.text, mode: mode, values: mode == "select"}
	}
	for s := 0; s < n; s++ {
		var d map[string]any
		if err := json.Unmarshal([]byte(docText(seed, s, 0)), &d); err != nil {
			return nil, fmt.Errorf("oracle decode of document %d: %w", s, err)
		}
		for i, p := range pool {
			q := qs[i]
			if p.find != nil {
				if p.find(d, s) {
					q.want = append(q.want, docID(s))
				}
				continue
			}
			if vals := p.sel(d); len(vals) > 0 {
				sort.Strings(vals)
				q.wantSel = append(q.wantSel, selRow{ID: docID(s), Values: vals})
			}
		}
	}
	return qs, nil
}

// firstQuery is the full-scan query whose answer marks a store as
// serving: every document is resolved to evaluate it, but the answer
// is small (the rare documents).
func firstQuery(n int) *query {
	q := &query{class: "first", lang: "jnl", text: `[(/~".*")* /rare]`, mode: "find", match: isRare}
	q.fillWant(n)
	return q
}
