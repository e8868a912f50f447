package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"

	"repro/internal/serve"
)

// The correctness gate's response and build checks.

// countNumbers finds "key": [ … ] in a JSON body and returns how many
// numbers the array holds; ok is false when the key is missing, the
// array does not close, or an element contains anything but the bytes
// of a finite JSON number.
func countNumbers(body []byte, key string) (n int, ok bool) {
	at := bytes.Index(body, []byte(`"`+key+`"`))
	if at < 0 {
		return 0, false
	}
	open := bytes.IndexByte(body[at:], '[')
	if open < 0 {
		return 0, false
	}
	inNumber := false
	for _, c := range body[at+open+1:] {
		switch {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			if !inNumber {
				inNumber = true
				n++
			}
		case c == ',', c == ' ', c == '\n', c == '\t', c == '\r':
			inNumber = false
		case c == ']':
			return n, true
		default:
			return n, false
		}
	}
	return n, false
}

// queryResponse is the union of the marginal and level-view bodies.
type queryResponse struct {
	Level     *int      `json:"level"`
	Marginals []float64 `json:"marginals"`
	View      *struct {
		Level int `json:"level"`
		Count struct {
			NoisyCount float64 `json:"noisy_count"`
		} `json:"count"`
		Cells struct {
			Counts     []float64 `json:"counts"`
			SideGroups int       `json:"side_groups"`
		} `json:"cells"`
	} `json:"view"`
}

// checkQuery validates one query response. full adds the encoding/json
// decode on top of the byte scan.
func (w *workload) checkQuery(status int, resp []byte, full bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(resp))
	}
	if n, ok := countNumbers(resp, w.arrayKey); !ok || n != w.arrayLen {
		return fmt.Errorf("response array %q: %d well-formed numbers, want %d", w.arrayKey, n, w.arrayLen)
	}
	if !full {
		return nil
	}
	var out queryResponse
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("parsing response: %w", err)
	}
	values, level := out.Marginals, out.Level
	if w.endpoint == "level" {
		if out.View == nil {
			return errors.New("response has no view")
		}
		values, level = out.View.Cells.Counts, &out.View.Level
		if k := out.View.Cells.SideGroups; k*k != w.arrayLen {
			return fmt.Errorf("view has %d side groups, want %d cells", k, w.arrayLen)
		}
		if math.IsNaN(out.View.Count.NoisyCount) || math.IsInf(out.View.Count.NoisyCount, 0) {
			return errors.New("view count is not finite")
		}
	}
	if level == nil || *level != w.level {
		return fmt.Errorf("response level %v, want %d", level, w.level)
	}
	if len(values) != w.arrayLen {
		return fmt.Errorf("response holds %d values, want %d", len(values), w.arrayLen)
	}
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("response holds a non-finite value")
		}
	}
	return nil
}

// treeFingerprint hashes what an ingest built: the dataset summary and
// the finest-level cell matrix, which determines every coarser level.
func treeFingerprint(ds *serve.Dataset) (uint64, error) {
	cells, err := ds.Tree().LevelCellCountsView(0)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	st := ds.Stats()
	put(int64(st.NumLeft))
	put(int64(st.NumRight))
	put(st.NumEdges)
	for _, c := range cells {
		put(c)
	}
	return h.Sum64(), nil
}
