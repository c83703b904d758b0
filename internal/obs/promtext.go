package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements a small parser for the Prometheus text
// exposition format (version 0.0.4) — enough for two consumers: the
// coordinator's /metrics federation endpoint (scrape each shard,
// re-label, re-emit) and the metric-hygiene tests (well-formedness,
// types, monotonic counters across scrapes).

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one metric line: name{labels} value.
type Sample struct {
	Name   string
	Labels []Label
	// Value keeps the original text so re-emission is byte-faithful;
	// Float() parses it on demand.
	Value string
}

// Float parses the sample's value.
func (s *Sample) Float() (float64, error) { return strconv.ParseFloat(s.Value, 64) }

// Label returns the value of the named label ("" when absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family groups the samples of one metric name with its metadata.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "histogram", "summary", "untyped"
	Samples []Sample
}

// ParseMetrics parses a text-format exposition into families in
// first-appearance order. Histogram/summary child series (_bucket,
// _sum, _count) are folded into their parent family.
func ParseMetrics(r io.Reader) ([]*Family, error) {
	var out []*Family
	fams := map[string]*Family{}
	fam := func(name string) *Family {
		f := fams[name]
		if f == nil {
			f = &Family{Name: name, Type: "untyped"}
			fams[name] = f
			out = append(out, f)
		}
		return f
	}
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, strings.TrimSpace(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// TYPE comments are read first, so a histogram's child series fold
	// into it wherever the declaration sits relative to them.
	types := map[string]string{}
	for i, line := range lines {
		name, typ, err := parseTypeComment(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", i+1, err)
		}
		types[name] = typ
	}
	for i, line := range lines {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			if name, typ, _ := parseTypeComment(line); name != "" {
				fam(name).Type = typ
			} else if help, ok := strings.CutPrefix(strings.TrimSpace(line[1:]), "HELP "); ok {
				name, text, _ := strings.Cut(help, " ")
				if !validName(name, true) {
					return nil, fmt.Errorf("metrics line %d: invalid metric name %q", i+1, name)
				}
				fam(name).Help = text
			}
		default:
			s, err := parseSampleLine(line)
			if err != nil {
				return nil, fmt.Errorf("metrics line %d: %v", i+1, err)
			}
			f := fam(familyName(s.Name, types))
			f.Samples = append(f.Samples, s)
		}
	}
	return out, nil
}

// parseTypeComment recognises a "# TYPE name type" line; name is ""
// for any other line.
func parseTypeComment(line string) (name, typ string, err error) {
	rest, isComment := strings.CutPrefix(line, "#")
	decl, isType := strings.CutPrefix(strings.TrimSpace(rest), "TYPE ")
	if !isComment || !isType {
		return "", "", nil
	}
	parts := strings.Fields(decl)
	if len(parts) != 2 {
		return "", "", fmt.Errorf("malformed TYPE comment %q", line)
	}
	if !validName(parts[0], true) {
		return "", "", fmt.Errorf("invalid metric name %q", parts[0])
	}
	switch parts[1] {
	case "counter", "gauge", "histogram", "summary", "untyped":
		return parts[0], parts[1], nil
	}
	return "", "", fmt.Errorf("unknown metric type %q", parts[1])
}

// familyName maps a sample name onto its family: histogram/summary
// children (_bucket/_sum/_count) belong to the family a TYPE comment
// declares as a histogram or summary.
func familyName(sample string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base == sample {
			continue
		}
		if t := types[base]; t == "histogram" || t == "summary" {
			return base
		}
	}
	return sample
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name, true) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := labelSetEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Value = fields[0]
	if _, err := strconv.ParseFloat(s.Value, 64); err != nil {
		return s, fmt.Errorf("bad value %q", s.Value)
	}
	return s, nil
}

// labelSetEnd returns the index of the '}' closing the label set that
// opens s, skipping braces inside quoted (backslash-escaped) values;
// -1 when there is none.
func labelSetEnd(s string) int {
	quoted := false
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case !quoted && c == '}':
			return i
		}
	}
	return -1
}

func parseLabels(s string) ([]Label, error) {
	var out []Label
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !validName(name, false) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		// Find the closing quote, honouring backslash escapes.
		j := eq + 2
		var val strings.Builder
		for {
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated label value for %q", name)
			}
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					val.WriteByte(s[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			j++
		}
		out = append(out, Label{Name: name, Value: val.String()})
		s = strings.TrimPrefix(strings.TrimSpace(s[j+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// validName checks a metric name (colon allowed) or a label name.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || colon && c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			i > 0 && '0' <= c && c <= '9'
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

// WithLabel returns a copy of the sample with an extra label inserted
// (keeping label names sorted, which the federation endpoint relies on
// for deterministic output). An existing label of the same name is
// overwritten.
func (s Sample) WithLabel(name, value string) Sample {
	labels := make([]Label, 0, len(s.Labels)+1)
	replaced := false
	for _, l := range s.Labels {
		if l.Name == name {
			labels = append(labels, Label{Name: name, Value: value})
			replaced = true
			continue
		}
		labels = append(labels, l)
	}
	if !replaced {
		labels = append(labels, Label{Name: name, Value: value})
		sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	}
	s.Labels = labels
	return s
}

// WriteSample emits one sample line in exposition format.
func WriteSample(w io.Writer, s Sample) {
	if len(s.Labels) == 0 {
		fmt.Fprintf(w, "%s %s\n", s.Name, s.Value)
		return
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteString("} ")
	b.WriteString(s.Value)
	b.WriteByte('\n')
	io.WriteString(w, b.String())
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
