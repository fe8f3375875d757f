package httpapi

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// splice.go is the router's half of the reply path: it turns a worker's
// InvokeResponse line into the RoutedInvokeResponse line without building
// either struct. A worker that is one of ours writes the canonical line
// (AppendInvokeResponse), and for that shape re-encoding every member
// would reproduce its bytes, so they are copied; anything else goes
// through encoding/json, which stays the arbiter of what a reply means —
// the same split parseInvokeWire makes for requests.

// SpliceRoutedInvokeResponse appends to dst the RoutedInvokeResponse line
// for line, a worker's /invoke reply body, and returns it with the reply's
// trace identity (zero when it carries none that parses). worker is the
// router's name for the worker, reported unless the reply names itself;
// trace is the router's own trace identity, reported when the worker sent
// none. The output equals json.Unmarshal into an InvokeResponse followed
// by AppendRoutedInvokeResponse, byte for byte, for every input; an error
// is encoding/json's verdict on line, and dst comes back unextended.
func SpliceRoutedInvokeResponse(dst, line []byte, worker string, forwardAttempts int, trace uint64) ([]byte, uint64, error) {
	if out, id, ok := spliceCanonical(dst, line, worker, forwardAttempts, trace); ok {
		return out, id, nil
	}
	var res RoutedInvokeResponse
	if err := json.Unmarshal(line, &res.InvokeResponse); err != nil {
		return dst, 0, err
	}
	res.Worker, res.ForwardAttempts = worker, forwardAttempts
	if res.InvokeResponse.Worker != "" {
		// Prefer the worker's self-reported identity: it survives URL
		// remappings in front of the fleet.
		res.Worker = res.InvokeResponse.Worker
	}
	if res.TraceID == "" && trace != 0 {
		// Worker tracing off: report the router's trace identity.
		res.TraceID = string(appendHex16(make([]byte, 0, 16), trace))
	}
	id, _ := strconv.ParseUint(res.TraceID, 16, 64)
	return AppendRoutedInvokeResponse(dst, &res), id, nil
}

// spliceCanonical is the fast path. It accepts exactly the lines whose
// members would re-encode to their own bytes: the keys of InvokeResponse
// in declaration order with no space between tokens, strings that need no
// escaping in either direction, integers and floats in the form strconv
// prints them, and a result that json.Valid accepts. ok=false is not a
// rejection; it sends the line to encoding/json.
func spliceCanonical(dst, line []byte, worker string, forwardAttempts int, trace uint64) (out []byte, traceID uint64, ok bool) {
	i := skipSpace(line, 0)
	start := i

	// {"fn":"…","result":…,"containerId":"…"
	if i = expect(line, i, `{"fn":`); i < 0 {
		return dst, 0, false
	}
	if i = skipVerbatimString(line, i); i < 0 {
		return dst, 0, false
	}
	if i = expect(line, i, `,"result":`); i < 0 {
		return dst, 0, false
	}
	end, vok := scanValue(line, i)
	if !vok || !json.Valid(line[i:end]) {
		return dst, 0, false
	}
	if i = expect(line, end, `,"containerId":`); i < 0 {
		return dst, 0, false
	}
	if i = skipVerbatimString(line, i); i < 0 {
		return dst, 0, false
	}
	head := line[start:i]

	// ,"worker":"…" — lifted out: the routed line carries it last.
	var self []byte
	if j := expect(line, i, `,"worker":`); j >= 0 {
		if i = skipVerbatimString(line, j); i < 0 {
			return dst, 0, false
		}
		self = line[j:i]
	}
	tailStart := i

	// ,"cold":…,"attempts":…
	if i = expect(line, i, `,"cold":`); i < 0 {
		return dst, 0, false
	}
	if j := expect(line, i, "true"); j >= 0 {
		i = j
	} else if i = expect(line, i, "false"); i < 0 {
		return dst, 0, false
	}
	if i = expect(line, i, `,"attempts":`); i < 0 {
		return dst, 0, false
	}
	if i = skipVerbatimInt(line, i); i < 0 {
		return dst, 0, false
	}
	tailMid := i

	// ,"traceId":"…"
	sentTrace := false
	if j := expect(line, i, `,"traceId":`); j >= 0 {
		if i = skipVerbatimString(line, j); i < 0 {
			return dst, 0, false
		}
		if i-j == 2 {
			return dst, 0, false // "": omitempty drops it on re-encode
		}
		// A short string argument that does not escape stays on the stack.
		traceID, _ = strconv.ParseUint(string(line[j+1:i-1]), 16, 64)
		sentTrace = true
	}

	// ,"latency":{…}} and nothing but space after it.
	if i = expect(line, i, `,"latency":{"schedMillis":`); i < 0 {
		return dst, 0, false
	}
	for _, key := range [...]string{`,"coldMillis":`, `,"queueMillis":`, `,"execMillis":`, `,"totalMillis":`, `}}`} {
		if i = skipVerbatimFloat(line, i); i < 0 {
			return dst, 0, false
		}
		if i = expect(line, i, key); i < 0 {
			return dst, 0, false
		}
	}
	if skipSpace(line, i) != len(line) {
		return dst, 0, false
	}

	out = append(dst, head...)
	out = append(out, line[tailStart:tailMid]...)
	if !sentTrace && trace != 0 {
		out = append(out, `,"traceId":"`...)
		out = appendHex16(out, trace)
		out = append(out, '"')
		traceID = trace
	}
	out = append(out, line[tailMid:i-1]...) // the sent traceId, latency; not the closing brace
	out = append(out, `,"worker":`...)
	if len(self) > 2 {
		out = append(out, self...)
	} else {
		out = appendJSONString(out, worker)
	}
	out = append(out, `,"forwardAttempts":`...)
	out = strconv.AppendInt(out, int64(forwardAttempts), 10)
	return append(out, '}'), traceID, true
}

// expect reports the index past lit when line continues with it at i,
// else -1.
func expect(line []byte, i int, lit string) int {
	if len(line)-i < len(lit) || string(line[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipVerbatimString reports the index past the JSON string at i when
// appendJSONString would write the decoded string back as the same bytes:
// printable ASCII with no escape and none of the characters encoding/json
// escapes. Otherwise -1.
func skipVerbatimString(line []byte, i int) int {
	if i >= len(line) || line[i] != '"' {
		return -1
	}
	for i++; i < len(line); i++ {
		switch b := line[i]; {
		case b == '"':
			return i + 1
		case b < 0x20 || b >= utf8.RuneSelf || b == '\\' || b == '<' || b == '>' || b == '&':
			return -1
		}
	}
	return -1
}

// skipVerbatimInt reports the index past the integer at i when it is in
// strconv.AppendInt's form and fits an int on every platform. Otherwise -1.
func skipVerbatimInt(line []byte, i int) int {
	start := i
	if i < len(line) && line[i] == '-' {
		i++
	}
	first := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	digits := i - first
	if digits == 0 || digits > 9 || (line[first] == '0' && (digits > 1 || first > start)) {
		return -1
	}
	return i
}

// skipVerbatimFloat reports the index past the number at i when
// appendJSONFloat would print the parsed value back as the same bytes:
// plain decimal notation, non-negative, no leading or trailing zero to
// trim, at most 15 significant digits (which a float64 round-trips), and
// not so small that it would print in exponent form. Otherwise -1.
func skipVerbatimFloat(line []byte, i int) int {
	intStart := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	intDigits := i - intStart
	if intDigits == 0 || (line[intStart] == '0' && intDigits > 1) {
		return -1
	}
	significant := intDigits
	if line[intStart] == '0' {
		significant = 0
	}
	if i < len(line) && line[i] == '.' {
		fracStart := i + 1
		for i = fracStart; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			if significant == 0 && line[i] == '0' {
				continue // leading zeros of a value below one
			}
			significant++
		}
		fracDigits := i - fracStart
		if fracDigits == 0 || line[i-1] == '0' {
			return -1
		}
		if line[intStart] == '0' && fracDigits-significant > 5 {
			return -1 // below 1e-6: printed with an exponent
		}
	}
	if significant > 15 {
		return -1
	}
	return i
}
