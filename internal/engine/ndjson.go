package engine

import (
	"bufio"
	"context"
	"io"
	"sort"
	"strings"
	"sync"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/stream"
)

// DocResult is the outcome for one document of an NDJSON batch.
type DocResult struct {
	// Index is the document's 0-based position among the non-blank
	// lines of the input; results are returned sorted by Index.
	Index int
	// Line is the 1-based line number the document came from.
	Line int
	// Tree is the materialized document. It is set by EvalReader (whose
	// callers need it to resolve the selected nodes) and nil on
	// ValidateReader results — retaining every tree of a large stream
	// just to report booleans would hold the whole input in memory —
	// and whenever Err is set.
	Tree *jsontree.Tree
	// Nodes holds the selected nodes (EvalReader only).
	Nodes []jsontree.NodeID
	// Valid holds the verdict (ValidateReader only).
	Valid bool
	// Err reports a parse or evaluation failure for this document.
	// A bad line fails alone; the rest of the batch proceeds.
	Err error
}

// MaxNDJSONLine bounds one line of NDJSON input (16 MiB), shared by
// the engine's readers and the store's bulk ingest so the two NDJSON
// surfaces accept exactly the same documents.
const MaxNDJSONLine = 16 << 20

// EvalReader runs the plan's node-selection semantics over every
// document of an NDJSON stream (one JSON document per line; blank
// lines are skipped). Lines are tokenized with the §6 streaming
// tokenizer and materialized through a per-worker jsontree.Builder, so
// the jsonval layer is bypassed entirely. The returned error reports a
// failure of the reader itself — an I/O error or a line exceeding 16
// MiB, after which the stream cannot be resynchronized — not of
// individual documents; the results computed before the failure are
// returned alongside it.
func (e *Engine) EvalReader(p *Plan, r io.Reader) ([]DocResult, error) {
	return e.runNDJSON(p, r, false)
}

// ValidateReader runs the plan's boolean semantics over every document
// of an NDJSON stream. See EvalReader for the input contract.
func (e *Engine) ValidateReader(p *Plan, r io.Reader) ([]DocResult, error) {
	return e.runNDJSON(p, r, true)
}

type ndjsonItem struct {
	index int
	line  int
	text  string
}

func (e *Engine) runNDJSON(p *Plan, r io.Reader, validate bool) ([]DocResult, error) {
	items := make(chan ndjsonItem, e.opts.Workers*2)
	scanErr := make(chan error, 1)
	go func() {
		defer close(items)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), MaxNDJSONLine)
		index, lineNo := 0, 0
		for sc.Scan() {
			lineNo++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			items <- ndjsonItem{index: index, line: lineNo, text: text}
			index++
		}
		scanErr <- sc.Err()
	}()

	var (
		mu      sync.Mutex
		results []DocResult
		wg      sync.WaitGroup
	)
	workers := e.opts.Workers
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			b := jsontree.NewBuilder()
			for it := range items {
				res := DocResult{Index: it.index, Line: it.line}
				tree, err := BuildTree(strings.NewReader(it.text), b)
				switch {
				case err != nil:
					res.Err = err
				case validate:
					res.Valid, res.Err = e.Validate(context.TODO(), p, tree)
				default:
					res.Tree = tree
					res.Nodes, res.Err = e.Eval(context.TODO(), p, tree)
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	return results, <-scanErr
}

// BuildTree tokenizes one JSON document from r (via the §6 streaming
// tokenizer) and replays the token stream into the reused builder,
// materializing a tree without going through the jsonval layer. It is
// the shared line-to-tree path of the engine's NDJSON readers and the
// store's bulk ingest.
func BuildTree(r io.Reader, b *jsontree.Builder) (*jsontree.Tree, error) {
	b.Reset()
	tok := stream.NewTokenizer(r)
	for {
		t, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case stream.BeginObject:
			err = b.BeginObject()
		case stream.EndObject:
			err = b.EndObject()
		case stream.BeginArray:
			err = b.BeginArray()
		case stream.EndArray:
			err = b.EndArray()
		case stream.KeyTok:
			err = b.Key(t.Str)
		case stream.StringTok:
			err = b.String(t.Str)
		case stream.NumberTok:
			err = b.Number(t.Num)
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Tree()
}
