package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"ringsym/internal/campaign"
)

// decodeRecord decodes one record line a worker streamed.  Workers encode
// with campaign.OrderedWriter, json.Marshal of a campaign.Record, so a line
// from a healthy worker is in that canonical form and parseRecord reads it
// at a fraction of json.Unmarshal's cost.  Any line parseRecord declines goes
// through json.Unmarshal, so the lines accepted and the records they decode
// to are exactly json.Unmarshal's.
func decodeRecord(line []byte) (campaign.Record, error) {
	if rec, ok := parseRecord(line); ok {
		return rec, nil
	}
	var rec campaign.Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// parseRecord decodes line when it is exactly json.Marshal's encoding of a
// campaign.Record: the fields in declaration order, no whitespace, omitempty
// fields absent when zero, Extra absent.  It declines (ok false) any other
// line, valid JSON included, so every line it accepts decodes to the same
// record under json.Unmarshal and re-encodes to itself (FuzzRecordLine).  A
// field added to campaign.Record sends every line to json.Unmarshal until it
// is read here too; TestParseRecordGoldenLines fails until then.
func parseRecord(line []byte) (rec campaign.Record, ok bool) {
	p := lineParser{b: line, ok: true}
	p.lit(`{"index":`)
	rec.Index = p.int()
	p.lit(`,"task":`)
	rec.Task = campaign.Task(p.str())
	p.lit(`,"model":`)
	rec.Model = p.str()
	p.lit(`,"n":`)
	rec.N = p.int()
	p.lit(`,"id_bound":`)
	rec.IDBound = p.int()
	p.lit(`,"mixed_chirality":`)
	rec.MixedChirality = p.bool()
	p.lit(`,"common_sense":`)
	rec.CommonSense = p.bool()
	p.lit(`,"seed":`)
	rec.Seed = p.num(64)
	rec.Phase = p.optInt(`,"phase":`)
	rec.Reflect = p.opt(`,"reflect":true`)
	p.lit(`,"status":`)
	rec.Status = campaign.Status(p.str())
	rec.Error = p.optStr(`,"error":`)
	p.lit(`,"verified":`)
	rec.Verified = p.bool()
	p.lit(`,"rounds":`)
	rec.Rounds = p.int()
	rec.RoundsNontrivial = p.optInt(`,"rounds_nontrivial":`)
	rec.RoundsAgreement = p.optInt(`,"rounds_agreement":`)
	rec.RoundsLeader = p.optInt(`,"rounds_leader":`)
	rec.RoundsCoordination = p.optInt(`,"rounds_coordination":`)
	rec.RoundsDiscovery = p.optInt(`,"rounds_discovery":`)
	rec.LeaderID = p.optInt(`,"leader_id":`)
	p.lit(`,"bound":`)
	rec.Bound = p.float()
	p.lit(`,"bound_str":`)
	rec.BoundStr = p.str()
	rec.Cache = p.optStr(`,"cache":`)
	p.lit(`}`)
	if !p.ok || len(p.b) != 0 {
		return campaign.Record{}, false
	}
	return rec, true
}

// lineParser consumes a canonical record line from the front of b.  The
// first mismatch clears ok; every later call is then a no-op.
type lineParser struct {
	b  []byte
	ok bool
}

// opt consumes s when the rest of the line starts with it.
func (p *lineParser) opt(s string) bool {
	if p.ok && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return true
	}
	return false
}

// lit consumes s, which the line must hold next.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

func (p *lineParser) bool() bool {
	if p.opt("true") {
		return true
	}
	p.lit("false")
	return false
}

// token consumes the longest prefix of bytes in set.
func (p *lineParser) token(set string) []byte {
	i := 0
	for i < len(p.b) && strings.IndexByte(set, p.b[i]) >= 0 {
		i++
	}
	tok := p.b[:i]
	p.b = p.b[i:]
	return tok
}

// num reads a bits-wide integer in canonical form: no sign but a leading
// '-', no leading zero, no "-0".
func (p *lineParser) num(bits int) int64 {
	if !p.ok {
		return 0
	}
	tok := p.token("-0123456789")
	v, err := strconv.ParseInt(string(tok), 10, bits)
	var buf [24]byte
	if err != nil || string(strconv.AppendInt(buf[:0], v, 10)) != string(tok) {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) int() int { return int(p.num(strconv.IntSize)) }

// optInt reads an omitempty int field: absent is 0, present must not be.
func (p *lineParser) optInt(key string) int {
	if !p.opt(key) {
		return 0
	}
	v := p.int()
	if v == 0 {
		p.ok = false
	}
	return v
}

// float reads a float64 exactly as encoding/json writes it: the shortest
// representation, in 'e' form below 1e-6 and from 1e21 up, with a one-digit
// negative exponent written without its leading zero.
func (p *lineParser) float() float64 {
	if !p.ok {
		return 0
	}
	tok := p.token("-+.0123456789eE")
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	if string(b) != string(tok) {
		p.ok = false
		return 0
	}
	return f
}

// str reads a string.  Printable ASCII that json.Marshal writes verbatim is
// read in place; a string holding an escape or a non-ASCII byte is decoded
// by json.Unmarshal and kept only if json.Marshal writes it back the same.
func (p *lineParser) str() string {
	if !p.ok || len(p.b) == 0 || p.b[0] != '"' {
		p.ok = false
		return ""
	}
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := word(p.b[1:i])
			p.b = p.b[i+1:]
			return s
		case c == '\\' || c >= 0x80:
			return p.escaped()
		case c < ' ' || c == '<' || c == '>' || c == '&':
			p.ok = false // json.Marshal escapes these
			return ""
		}
	}
	p.ok = false
	return ""
}

// escaped reads the string token at the front of the line through
// encoding/json.
func (p *lineParser) escaped() string {
	end := 1
	for end < len(p.b) && p.b[end] != '"' {
		if p.b[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(p.b) {
		p.ok = false
		return ""
	}
	tok := p.b[:end+1]
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		p.ok = false
		return ""
	}
	if enc, err := json.Marshal(s); err != nil || !bytes.Equal(enc, tok) {
		p.ok = false
		return ""
	}
	p.b = p.b[end+1:]
	return s
}

// optStr reads an omitempty string field: absent is "", present must not be.
func (p *lineParser) optStr(key string) string {
	if !p.opt(key) {
		return ""
	}
	s := p.str()
	if s == "" {
		p.ok = false
	}
	return s
}

// word returns b as a string without allocating for the words that repeat
// on every record line: tasks, models, statuses and cache annotations.
func word(b []byte) string {
	switch string(b) {
	case "coordinate":
		return "coordinate"
	case "discover":
		return "discover"
	case "basic":
		return "basic"
	case "lazy":
		return "lazy"
	case "perceptive":
		return "perceptive"
	case "ok":
		return "ok"
	case "failed":
		return "failed"
	case "unsolvable":
		return "unsolvable"
	case "miss":
		return "miss"
	case "hit":
		return "hit"
	case "dedup":
		return "dedup"
	case "disk":
		return "disk"
	}
	return string(b)
}
