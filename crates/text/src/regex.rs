//! A Thompson-NFA regular expression engine.
//!
//! Supported syntax: literals, `.`, escapes (`\.` `\\` `\d` `\w` `\s` and
//! their negations `\D` `\W` `\S`), character classes `[a-z0-9_]` and
//! negated classes `[^...]`, grouping `(...)`, alternation `|`,
//! repetition `*` `+` `?`, and anchors `^` `$`. Matching is byte-oriented
//! (ASCII); case-insensitive mode folds ASCII letters.
//!
//! The engine compiles to an NFA and simulates it with the standard
//! set-of-states algorithm: worst case O(pattern × text), never
//! exponential, which matters because label rules run over millions of
//! process records.

/// Errors from pattern compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Unbalanced parenthesis.
    UnbalancedParen,
    /// Unterminated character class.
    UnterminatedClass,
    /// Repetition operator with nothing to repeat.
    DanglingRepeat,
    /// Escape at end of pattern or unknown escape.
    BadEscape,
    /// Empty pattern component where an atom was required.
    UnexpectedToken(char),
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegexError::UnbalancedParen => write!(f, "unbalanced parenthesis"),
            RegexError::UnterminatedClass => write!(f, "unterminated character class"),
            RegexError::DanglingRepeat => write!(f, "repetition with nothing to repeat"),
            RegexError::BadEscape => write!(f, "bad escape sequence"),
            RegexError::UnexpectedToken(c) => write!(f, "unexpected token '{c}'"),
        }
    }
}

impl std::error::Error for RegexError {}

/// A set of byte values, stored as a 256-bit bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteSet {
    bits: [u64; 4],
}

impl ByteSet {
    const fn empty() -> Self {
        Self { bits: [0; 4] }
    }

    fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1 << (b & 63);
    }

    fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }

    fn negate(&mut self) {
        for w in &mut self.bits {
            *w = !*w;
        }
    }

    /// Fold ASCII case: whichever case of a letter is present, add the other.
    fn fold_case(&mut self) {
        for c in b'a'..=b'z' {
            let upper = c - 32;
            if self.contains(c) {
                self.insert(upper);
            }
            if self.contains(upper) {
                self.insert(c);
            }
        }
    }
}

// ---------------------------------------------------------------- AST --

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Class(ByteSet),
    Concat(Box<Ast>, Box<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
    AnchorStart,
    AnchorEnd,
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse(&mut self) -> Result<Ast, RegexError> {
        let ast = self.alternation()?;
        if self.pos != self.input.len() {
            // A stray ')' is the only way to stop early.
            return Err(RegexError::UnbalancedParen);
        }
        Ok(ast)
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut lhs = self.concat()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let rhs = self.concat()?;
            lhs = Ast::Alt(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts: Vec<Ast> = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                _ => parts.push(self.repeat()?),
            }
        }
        Ok(parts
            .into_iter()
            .reduce(|a, b| Ast::Concat(Box::new(a), Box::new(b)))
            .unwrap_or(Ast::Empty))
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let repeatable = !matches!(atom, Ast::AnchorStart | Ast::AnchorEnd);
        match self.peek() {
            Some(b'*') => {
                self.bump();
                if !repeatable {
                    return Err(RegexError::DanglingRepeat);
                }
                Ok(Ast::Star(Box::new(atom)))
            }
            Some(b'+') => {
                self.bump();
                if !repeatable {
                    return Err(RegexError::DanglingRepeat);
                }
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some(b'?') => {
                self.bump();
                if !repeatable {
                    return Err(RegexError::DanglingRepeat);
                }
                Ok(Ast::Opt(Box::new(atom)))
            }
            _ => Ok(atom),
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Ok(Ast::Empty),
            Some(b'(') => {
                let inner = self.alternation()?;
                if self.bump() != Some(b')') {
                    return Err(RegexError::UnbalancedParen);
                }
                Ok(inner)
            }
            Some(b'[') => self.char_class(),
            Some(b'.') => {
                let mut set = ByteSet::empty();
                set.insert_range(0, 255);
                // '.' traditionally excludes newline.
                let mut nl = ByteSet::empty();
                nl.insert(b'\n');
                for (w, n) in set.bits.iter_mut().zip(nl.bits) {
                    *w &= !n;
                }
                Ok(Ast::Class(set))
            }
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'\\') => {
                let set = self.escape_set()?;
                Ok(Ast::Class(set))
            }
            Some(b'*') | Some(b'+') | Some(b'?') => Err(RegexError::DanglingRepeat),
            Some(b')') => Err(RegexError::UnbalancedParen),
            Some(c) => {
                let mut set = ByteSet::empty();
                set.insert(c);
                Ok(Ast::Class(set))
            }
        }
    }

    fn escape_set(&mut self) -> Result<ByteSet, RegexError> {
        let c = self.bump().ok_or(RegexError::BadEscape)?;
        let mut set = ByteSet::empty();
        match c {
            b'd' => set.insert_range(b'0', b'9'),
            b'D' => {
                set.insert_range(b'0', b'9');
                set.negate();
            }
            b'w' => {
                set.insert_range(b'a', b'z');
                set.insert_range(b'A', b'Z');
                set.insert_range(b'0', b'9');
                set.insert(b'_');
            }
            b'W' => {
                set.insert_range(b'a', b'z');
                set.insert_range(b'A', b'Z');
                set.insert_range(b'0', b'9');
                set.insert(b'_');
                set.negate();
            }
            b's' => {
                for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
                    set.insert(b);
                }
            }
            b'S' => {
                for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
                    set.insert(b);
                }
                set.negate();
            }
            b'n' => set.insert(b'\n'),
            b't' => set.insert(b'\t'),
            b'r' => set.insert(b'\r'),
            // Punctuation escapes: \. \\ \[ \( etc.
            c if c.is_ascii_punctuation() => set.insert(c),
            _ => return Err(RegexError::BadEscape),
        }
        Ok(set)
    }

    fn char_class(&mut self) -> Result<Ast, RegexError> {
        let mut set = ByteSet::empty();
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        // A ']' immediately after '[' (or '[^') is a literal.
        let mut first = true;
        loop {
            let c = self.bump().ok_or(RegexError::UnterminatedClass)?;
            if c == b']' && !first {
                break;
            }
            first = false;
            let lo = if c == b'\\' {
                let esc = self.escape_set()?;
                // Multi-byte escapes (\d, \w, \s) are unioned directly and
                // cannot form ranges.
                for b in 0..=255u8 {
                    if esc.contains(b) {
                        set.insert(b);
                    }
                }
                continue;
            } else {
                c
            };
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                self.bump(); // '-'
                let hi = self.bump().ok_or(RegexError::UnterminatedClass)?;
                if hi < lo {
                    return Err(RegexError::UnexpectedToken(hi as char));
                }
                set.insert_range(lo, hi);
            } else {
                set.insert(lo);
            }
        }
        if negated {
            set.negate();
        }
        Ok(Ast::Class(set))
    }
}

// ---------------------------------------------------------------- NFA --

#[derive(Debug, Clone)]
enum State {
    /// Consume one byte in the set, go to `next`.
    Class(ByteSet, usize),
    /// Fork to both targets without consuming.
    Split(usize, usize),
    /// Zero-width: only passable at text position 0.
    AnchorStart(usize),
    /// Zero-width: only passable at end of text.
    AnchorEnd(usize),
    /// Accept.
    Match,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    states: Vec<State>,
    start: usize,
}

impl Regex {
    /// Compile a pattern (case-sensitive).
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        Self::compile(pattern, false)
    }

    /// Compile a pattern with ASCII case folding.
    pub fn new_case_insensitive(pattern: &str) -> Result<Self, RegexError> {
        Self::compile(pattern, true)
    }

    fn compile(pattern: &str, fold: bool) -> Result<Self, RegexError> {
        let ast = Parser::new(pattern).parse()?;
        let mut builder = Builder {
            states: Vec::new(),
            fold,
        };
        let frag_start = builder.build(&ast);
        let match_state = builder.push(State::Match);
        builder.patch(frag_start.out, match_state);
        Ok(Self {
            states: builder.states,
            start: frag_start.start,
        })
    }

    /// Unanchored search: does any substring of `text` match?
    pub fn is_match(&self, text: &str) -> bool {
        let bytes = text.as_bytes();
        let n = bytes.len();
        let mut current: Vec<usize> = Vec::with_capacity(self.states.len());
        let mut on: Vec<bool> = vec![false; self.states.len()];

        #[allow(clippy::needless_range_loop)] // pos is a cursor, not just an index
        for pos in 0..=n {
            // Unanchored: a fresh attempt may start at every position.
            self.add_state(self.start, pos, n, &mut current, &mut on);
            if current
                .iter()
                .any(|&s| matches!(self.states[s], State::Match))
            {
                return true;
            }
            if pos == n {
                break;
            }
            let c = bytes[pos];
            let prev = std::mem::take(&mut current);
            on.iter_mut().for_each(|b| *b = false);
            for s in prev {
                if let State::Class(set, next) = &self.states[s] {
                    if set.contains(c) {
                        self.add_state(*next, pos + 1, n, &mut current, &mut on);
                    }
                }
            }
        }
        false
    }

    /// Epsilon-closure insertion with anchor awareness.
    fn add_state(&self, s: usize, pos: usize, n: usize, out: &mut Vec<usize>, on: &mut [bool]) {
        if on[s] {
            return;
        }
        on[s] = true;
        match &self.states[s] {
            State::Split(a, b) => {
                let (a, b) = (*a, *b);
                self.add_state(a, pos, n, out, on);
                self.add_state(b, pos, n, out, on);
            }
            State::AnchorStart(next) => {
                if pos == 0 {
                    let next = *next;
                    self.add_state(next, pos, n, out, on);
                }
            }
            State::AnchorEnd(next) => {
                if pos == n {
                    let next = *next;
                    self.add_state(next, pos, n, out, on);
                }
            }
            _ => out.push(s),
        }
    }
}

/// An NFA fragment under construction: entry state plus dangling exits.
struct Frag {
    start: usize,
    /// Indices of states whose `next` must be patched to the continuation.
    out: Vec<usize>,
}

struct Builder {
    states: Vec<State>,
    fold: bool,
}

impl Builder {
    fn push(&mut self, s: State) -> usize {
        self.states.push(s);
        self.states.len() - 1
    }

    fn patch(&mut self, outs: Vec<usize>, target: usize) {
        for idx in outs {
            match &mut self.states[idx] {
                State::Class(_, next) | State::AnchorStart(next) | State::AnchorEnd(next) => {
                    *next = target
                }
                State::Split(_, b) => *b = target,
                State::Match => unreachable!("match state is never patched"),
            }
        }
    }

    fn build(&mut self, ast: &Ast) -> Frag {
        match ast {
            Ast::Empty => {
                // A split whose first arm is immediately the continuation.
                let s = self.push(State::Split(usize::MAX, usize::MAX));
                // Both arms dangle to the continuation; use one.
                if let State::Split(a, _) = &mut self.states[s] {
                    *a = s; // placeholder self-loop avoided below
                }
                // Simpler: model empty as an epsilon via Split(next,next).
                Frag {
                    start: s,
                    out: vec![s],
                }
            }
            Ast::Class(set) => {
                let mut set = *set;
                if self.fold {
                    set.fold_case();
                }
                let s = self.push(State::Class(set, usize::MAX));
                Frag {
                    start: s,
                    out: vec![s],
                }
            }
            Ast::Concat(a, b) => {
                let fa = self.build(a);
                let fb = self.build(b);
                self.patch(fa.out, fb.start);
                Frag {
                    start: fa.start,
                    out: fb.out,
                }
            }
            Ast::Alt(a, b) => {
                let fa = self.build(a);
                let fb = self.build(b);
                let s = self.push(State::Split(fa.start, fb.start));
                let mut out = fa.out;
                out.extend(fb.out);
                Frag { start: s, out }
            }
            Ast::Star(inner) => {
                let fi = self.build(inner);
                let s = self.push(State::Split(fi.start, usize::MAX));
                self.patch(fi.out, s);
                Frag {
                    start: s,
                    out: vec![s],
                }
            }
            Ast::Plus(inner) => {
                let fi = self.build(inner);
                let s = self.push(State::Split(fi.start, usize::MAX));
                self.patch(fi.out, s);
                Frag {
                    start: fi.start,
                    out: vec![s],
                }
            }
            Ast::Opt(inner) => {
                let fi = self.build(inner);
                let s = self.push(State::Split(fi.start, usize::MAX));
                let mut out = fi.out;
                out.push(s);
                Frag { start: s, out }
            }
            Ast::AnchorStart => {
                let s = self.push(State::AnchorStart(usize::MAX));
                Frag {
                    start: s,
                    out: vec![s],
                }
            }
            Ast::AnchorEnd => {
                let s = self.push(State::AnchorEnd(usize::MAX));
                Frag {
                    start: s,
                    out: vec![s],
                }
            }
        }
    }
}

// -------------------------------------------------------------- rules --

/// An ordered list of `(label, pattern)` rules: the first matching rule
/// wins. This is the shape of the paper's software-label derivation table
/// (§4.3) — e.g. `("LAMMPS", "lmp|lammps")`.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<(String, Regex)>,
}

impl RuleSet {
    /// Compile rules; each entry is `(label, pattern)`. Patterns are
    /// case-insensitive, matching how operators eyeball path names.
    pub fn new(rules: &[(&str, &str)]) -> Result<Self, RegexError> {
        let compiled = rules
            .iter()
            .map(|(label, pat)| Ok((label.to_string(), Regex::new_case_insensitive(pat)?)))
            .collect::<Result<Vec<_>, RegexError>>()?;
        Ok(Self { rules: compiled })
    }

    /// First label whose pattern matches `text`.
    pub fn first_match(&self, text: &str) -> Option<&str> {
        self.rules
            .iter()
            .find(|(_, re)| re.is_match(text))
            .map(|(label, _)| label.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literals() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("", "anything")); // empty pattern matches everywhere
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a-c"));
        assert!(!m("a.c", "a\nc")); // dot excludes newline
        assert!(m("[abc]+", "zzbzz"));
        assert!(m("[a-f0-9]+", "deadbeef"));
        assert!(!m("[^a-z]", "abc"));
        assert!(m("[^a-z]", "abc1"));
        assert!(m("[]]", "]")); // literal ']' first in class
        assert!(m("[a-]", "-")); // trailing '-' is literal
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("lmp|lammps", "path/to/lmp_gpu"));
        assert!(m("lmp|lammps", "LAMMPS".to_lowercase().as_str()));
        assert!(m("gro(macs)?", "gromacs-2024"));
        assert!(m("gro(macs)?", "grompp"));
        assert!(m("(ab|cd)+ef", "abcdabef"));
        assert!(!m("(ab|cd)+ef", "ef"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("def$", "abcdef"));
        assert!(!m("def$", "defx"));
        assert!(m("^abc$", "abc"));
        assert!(!m("^abc$", "abcd"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\.out", "bin/a.out"));
        assert!(!m(r"a\.out", "axout"));
        assert!(m(r"\d+", "version 42"));
        assert!(!m(r"\d", "no digits"));
        assert!(m(r"\w+", "word_1"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"\S+", "x"));
        assert!(m(r"[\d]+", "123"));
    }

    #[test]
    fn case_insensitive() {
        let re = Regex::new_case_insensitive("lammps").unwrap();
        assert!(re.is_match("LAMMPS"));
        assert!(re.is_match("LaMmPs"));
        let re = Regex::new_case_insensitive("[a-z]+").unwrap();
        assert!(re.is_match("ABC"));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*abc").is_err());
        assert!(Regex::new("^*").is_err());
        assert!(Regex::new("\\").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // (a+)+$ against a long non-matching string: a backtracking engine
        // would take exponential time; the NFA simulation stays linear.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(5000);
        let start = std::time::Instant::now();
        assert!(!re.is_match(&text));
        assert!(start.elapsed().as_secs() < 2, "simulation not linear");
    }

    #[test]
    fn ruleset_first_match_in_rule_order() {
        let rules = RuleSet::new(&[
            ("LAMMPS", "lmp|lammps"),
            ("GROMACS", "gmx|gromacs"),
            ("icon", "icon"),
        ])
        .unwrap();
        assert_eq!(rules.first_match("/users/x/lmp_mpi"), Some("LAMMPS"));
        assert_eq!(rules.first_match("/appl/gromacs/bin/gmx"), Some("GROMACS"));
        assert_eq!(rules.first_match("/users/x/unknown_binary"), None);
        assert_eq!(rules.first_match("/x/icon-gmx"), Some("GROMACS"));
    }

    #[test]
    fn realistic_hpc_label_patterns() {
        let rules = RuleSet::new(&[
            ("LAMMPS", r"lmp|lammps"),
            ("GROMACS", r"gmx|gromacs"),
            ("miniconda", r"conda"),
            ("amber", r"amber|pmemd|sander"),
            ("gzip", r"gzip"),
            ("icon", r"icon"),
        ])
        .unwrap();
        assert_eq!(
            rules.first_match("/users/u9/lammps/build/lmp"),
            Some("LAMMPS")
        );
        assert_eq!(
            rules.first_match("/users/u3/miniconda3/bin/python3"),
            Some("miniconda")
        );
        assert_eq!(
            rules.first_match("/projappl/amber22/bin/pmemd.cuda"),
            Some("amber")
        );
        assert_eq!(
            rules.first_match("/users/u1/tools/gzip-1.12/gzip"),
            Some("gzip")
        );
        assert_eq!(rules.first_match("/scratch/a.out"), None);
    }
}
