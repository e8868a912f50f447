package bipartite

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
)

// LoadDBLPXML parses a DBLP-style XML stream into an author-paper
// association graph (authors on the left, publications on the right).
//
// The paper's evaluation used the dblp.uni-trier.de dump. This loader
// understands the dump's structure — publication elements such as
// <article>, <inproceedings> etc. containing <author> children and a key
// attribute — so the pipeline can run on the real dataset when it is
// available. The synthetic generator in internal/datagen is the default
// substitute (see its package comment).
//
// Parsing is streaming: memory is proportional to the output graph, not
// the XML text. Entity definitions beyond XML's builtin five are mapped
// through a permissive CharsetReader-free fallback: unknown entities cause
// an error from encoding/xml, so callers preprocessing real DBLP dumps
// should resolve entities first (the dump ships a DTD with hundreds of
// author-name entities).
func LoadDBLPXML(r io.Reader) (*Graph, error) {
	dec := xml.NewDecoder(r)
	// The real dump declares latin-1; accept it by treating bytes as-is.
	dec.CharsetReader = func(charset string, input io.Reader) (io.Reader, error) {
		return input, nil
	}

	publicationKinds := map[string]bool{
		"article": true, "inproceedings": true, "proceedings": true,
		"book": true, "incollection": true, "phdthesis": true,
		"mastersthesis": true, "www": false, // www entries are author homepages
	}

	b := NewBuilder(0)
	var (
		inPub      bool
		pubKey     string
		pubAuthors []string
		inAuthor   bool
		authorText []byte
		pubCount   int
	)
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("bipartite: parsing dblp xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !inPub {
				if publicationKinds[t.Name.Local] {
					inPub = true
					pubAuthors = pubAuthors[:0]
					pubKey = ""
					for _, attr := range t.Attr {
						if attr.Name.Local == "key" {
							pubKey = attr.Value
						}
					}
					if pubKey == "" {
						pubKey = fmt.Sprintf("pub/%d", pubCount)
					}
					pubCount++
				}
				continue
			}
			if t.Name.Local == "author" || t.Name.Local == "editor" {
				inAuthor = true
				authorText = authorText[:0]
			}
		case xml.CharData:
			if inAuthor {
				authorText = append(authorText, t...)
			}
		case xml.EndElement:
			switch {
			case inAuthor && (t.Name.Local == "author" || t.Name.Local == "editor"):
				inAuthor = false
				if name := string(authorText); name != "" {
					pubAuthors = append(pubAuthors, name)
				}
			case inPub && publicationKinds[t.Name.Local]:
				inPub = false
				for _, a := range pubAuthors {
					b.AddAssociation(a, pubKey)
				}
			}
		}
	}
	if len(b.edges) == 0 {
		return nil, errors.New("bipartite: dblp xml contained no author-publication associations")
	}
	return b.Build()
}
