package textproc

// Porter stemming algorithm (M.F. Porter, 1980), the normalization step the
// paper specifies for document preprocessing. This is a faithful
// implementation of the original five-step algorithm operating on
// lower-case ASCII words; non-ASCII words are returned unchanged.
//
// The steps mutate their input in place: no rule ever grows the word
// beyond its original length (every replacement suffix is at most as long
// as the suffix it replaces, and step1b's appended 'e' follows the removal
// of at least two bytes), so stemming needs no scratch beyond the word
// itself: StemBytes stems the caller's bytes.

// StemBytes stems word in place and returns the (possibly shorter) stem,
// aliasing word's storage. Words that are not lower-case ASCII of length
// >= 3 are returned unchanged, as in the reference implementation. It
// never allocates.
func StemBytes(word []byte) []byte {
	if len(word) < 3 {
		return word
	}
	for _, c := range word {
		if c < 'a' || c > 'z' {
			return word
		}
	}
	return stemASCII(word)
}

// stemASCII runs the five Porter steps, mutating b in place. Callers must
// own b's storage; the result is a prefix-length reslice of b.
func stemASCII(b []byte) []byte {
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	return b
}

// isConsonant reports whether b[i] is a consonant in Porter's sense:
// 'y' is a vowel when preceded by a consonant.
func isConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(b, i-1)
	}
	return true
}

// measure returns m, the number of VC sequences in b[:k].
func measure(b []byte) int {
	m := 0
	i := 0
	n := len(b)
	for i < n && isConsonant(b, i) {
		i++
	}
	for i < n {
		for i < n && !isConsonant(b, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && isConsonant(b, i) {
			i++
		}
	}
	return m
}

// containsVowel reports whether b contains a vowel.
func containsVowel(b []byte) bool {
	for i := range b {
		if !isConsonant(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b ends with a doubled consonant.
func endsDoubleConsonant(b []byte) bool {
	n := len(b)
	if n < 2 || b[n-1] != b[n-2] {
		return false
	}
	return isConsonant(b, n-1)
}

// endsCVC reports whether b ends consonant-vowel-consonant where the final
// consonant is not w, x or y ("*o" condition).
func endsCVC(b []byte) bool {
	n := len(b)
	if n < 3 {
		return false
	}
	if !isConsonant(b, n-3) || isConsonant(b, n-2) || !isConsonant(b, n-1) {
		return false
	}
	switch b[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	return string(b[len(b)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r (in place — r is never longer
// than s in any Porter rule, so the write stays inside b) if the stem
// before s has measure greater than minM. Returns the (possibly shorter)
// word and whether the suffix matched (regardless of the measure test).
func replaceSuffix(b []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(b, s) {
		return b, false
	}
	stem := b[:len(b)-len(s)]
	if measure(stem) > minM {
		return append(stem, r...), true
	}
	return b, true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2]
	case hasSuffix(b, "ies"):
		return b[:len(b)-2]
	case hasSuffix(b, "ss"):
		return b
	case hasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b[:len(b)-3]) > 0 {
			return b[:len(b)-1]
		}
		return b
	}
	var stem []byte
	switch {
	case hasSuffix(b, "ed") && containsVowel(b[:len(b)-2]):
		stem = b[:len(b)-2]
	case hasSuffix(b, "ing") && containsVowel(b[:len(b)-3]):
		stem = b[:len(b)-3]
	default:
		return b
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && containsVowel(b[:len(b)-1]) {
		b[len(b)-1] = 'i'
	}
	return b
}

var step2Rules = []struct{ suffix, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(b []byte) []byte {
	for _, r := range step2Rules {
		if out, matched := replaceSuffix(b, r.suffix, r.repl, 0); matched {
			return out
		}
	}
	return b
}

var step3Rules = []struct{ suffix, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(b []byte) []byte {
	for _, r := range step3Rules {
		if out, matched := replaceSuffix(b, r.suffix, r.repl, 0); matched {
			return out
		}
	}
	return b
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(b []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(b, s) {
			continue
		}
		stem := b[:len(b)-len(s)]
		if s == "ion" {
			// "ion" is only removed after s or t.
			if len(stem) == 0 || (stem[len(stem)-1] != 's' && stem[len(stem)-1] != 't') {
				return b
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return b
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stem := b[:len(b)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return b
}

func step5b(b []byte) []byte {
	if hasSuffix(b, "ll") && measure(b) > 1 {
		return b[:len(b)-1]
	}
	return b
}
