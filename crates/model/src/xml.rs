//! A minimal, dependency-free XML subset parser and writer.
//!
//! WOHA workflows are submitted as XML configuration files (the paper's
//! `hadoop dag /path/to/W_i.xml`). This module implements exactly the subset
//! those files need: elements, attributes, comments, an optional
//! `<?xml ...?>` declaration, and the five predefined entities. Character
//! data inside an element is accepted (its entities must still be valid)
//! and dropped: no workflow file carries any, so the tree holds elements
//! only. It does not implement namespaces, DTDs, processing instructions
//! beyond the declaration, or CDATA.
//!
//! # Examples
//!
//! ```
//! use woha_model::xml::{Element, parse};
//!
//! # fn main() -> Result<(), woha_model::XmlError> {
//! let doc = parse(r#"<workflow name="w"><job name="a"/></workflow>"#)?;
//! assert_eq!(doc.name, "workflow");
//! assert_eq!(doc.attr("name"), Some("w"));
//! assert_eq!(doc.children.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::error::XmlError;
use std::fmt;

/// An XML element: name, attributes and child elements in document order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order, unescaped.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder-style).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder-style).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// The value of the first attribute named `name`, if any.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Element {
    /// Serializes the element as indented XML (two-space indent).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_element(f, self, 0)
    }
}

fn write_element(f: &mut fmt::Formatter<'_>, e: &Element, depth: usize) -> fmt::Result {
    let indent = 2 * depth;
    write!(f, "{:indent$}<{}", "", e.name)?;
    for (name, value) in &e.attributes {
        write!(f, " {}=\"{}\"", name, escape(value))?;
    }
    if e.children.is_empty() {
        return f.write_str("/>\n");
    }
    f.write_str(">\n")?;
    for child in &e.children {
        write_element(f, child, depth + 1)?;
    }
    writeln!(f, "{:indent$}</{}>", "", e.name)
}

/// Escapes the five predefined XML entities in `text`.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Parses an XML document and returns its root element.
///
/// # Errors
///
/// Returns [`XmlError`] on malformed input: mismatched tags, truncated
/// constructs, unknown entities, a missing root, trailing content, or
/// elements nested more than 128 deep.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_node(0)?.ok_or(XmlError::NoRootElement)?;
    p.skip_misc();
    if p.pos < p.bytes.len() {
        return Err(XmlError::TrailingContent { offset: p.pos });
    }
    Ok(root)
}

/// Deepest element nesting [`parse`] accepts. The parser recurses once
/// per open element, so without a limit a hostile document overflows the
/// stack; workflow documents nest three deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and comments.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                match find(self.bytes, self.pos + 4, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => {
                        self.pos = self.bytes.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_misc();
        if self.starts_with("<?xml") {
            match find(self.bytes, self.pos, "?>") {
                Some(end) => self.pos = end + 2,
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "XML declaration",
                    })
                }
            }
        }
        self.skip_misc();
        Ok(())
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(match self.peek() {
                Some(c) => XmlError::UnexpectedChar {
                    found: c as char,
                    offset: self.pos,
                    expected: "a tag or attribute name",
                },
                None => XmlError::UnexpectedEof { context: "a name" },
            });
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8, expected: &'static str) -> Result<(), XmlError> {
        match self.peek() {
            Some(found) if found == c => {
                self.pos += 1;
                Ok(())
            }
            Some(found) => Err(XmlError::UnexpectedChar {
                found: found as char,
                offset: self.pos,
                expected,
            }),
            None => Err(XmlError::UnexpectedEof { context: expected }),
        }
    }

    fn unescape_into(&self, raw: &str) -> Result<String, XmlError> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            rest = &rest[amp + 1..];
            let semi = rest.find(';').ok_or(XmlError::UnexpectedEof {
                context: "an entity reference",
            })?;
            let name = &rest[..semi];
            match name {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ => return Err(XmlError::UnknownEntity(name.to_string())),
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }

    fn parse_attributes(&mut self, element: &mut Element) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') | Some(b'>') => return Ok(()),
                Some(_) => {}
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "attributes",
                    })
                }
            }
            let name = self.read_name()?;
            self.skip_whitespace();
            self.expect(b'=', "'=' after attribute name")?;
            self.skip_whitespace();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    q
                }
                Some(found) => {
                    return Err(XmlError::UnexpectedChar {
                        found: found as char,
                        offset: self.pos,
                        expected: "a quoted attribute value",
                    })
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "an attribute value",
                    })
                }
            };
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == quote {
                    break;
                }
                self.pos += 1;
            }
            if self.peek().is_none() {
                return Err(XmlError::UnexpectedEof {
                    context: "an attribute value",
                });
            }
            let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.pos += 1; // closing quote
            element.attributes.push((name, self.unescape_into(&raw)?));
        }
    }

    /// Parses the next child element; `None` at a closing tag or end of
    /// input. `depth` is the number of elements open around it.
    ///
    /// Character data is scanned, its entities checked, and dropped. At
    /// depth 0 non-blank text stands where the root element should be.
    fn parse_node(&mut self, depth: usize) -> Result<Option<Element>, XmlError> {
        loop {
            self.skip_misc();
            match self.peek() {
                None => return Ok(None),
                Some(b'<') if self.starts_with("</") => return Ok(None),
                Some(b'<') => return self.parse_element(depth).map(Some),
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    let text = self.unescape_into(&raw)?;
                    // Dropped by looping, not by recursing: comments can
                    // separate any number of text runs.
                    if depth == 0 && !text.trim().is_empty() {
                        return Err(XmlError::NoRootElement);
                    }
                }
            }
        }
    }

    /// Parses the element whose open tag starts here, with its children.
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth >= MAX_DEPTH {
            return Err(XmlError::TooDeep {
                limit: MAX_DEPTH,
                offset: self.pos,
            });
        }
        self.pos += 1;
        let mut element = Element::new(self.read_name()?);
        self.parse_attributes(&mut element)?;
        if self.peek() == Some(b'/') {
            self.pos += 1;
            self.expect(b'>', "'>' closing a self-closing tag")?;
            return Ok(element);
        }
        self.expect(b'>', "'>' closing an open tag")?;
        while let Some(child) = self.parse_node(depth + 1)? {
            element.children.push(child);
        }
        if !self.starts_with("</") {
            return Err(XmlError::UnexpectedEof {
                context: "a closing tag",
            });
        }
        self.pos += 2;
        let closing = self.read_name()?;
        if closing != element.name {
            return Err(XmlError::MismatchedTag {
                expected: element.name,
                found: closing,
            });
        }
        self.skip_whitespace();
        self.expect(b'>', "'>' after a closing tag name")?;
        Ok(element)
    }
}

fn find(bytes: &[u8], from: usize, needle: &str) -> Option<usize> {
    let needle = needle.as_bytes();
    if from >= bytes.len() {
        return None;
    }
    bytes[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| from + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let doc = parse(
            r#"<?xml version="1.0"?>
            <!-- a workflow -->
            <workflow name="w1" deadline="80m">
              <job name="extract" mappers="8"><input path="/a"/></job>
              <job name="load" mappers="2"/>
            </workflow>"#,
        )
        .unwrap();
        assert_eq!(doc.name, "workflow");
        assert_eq!(doc.attr("deadline"), Some("80m"));
        let jobs = &doc.children;
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].children[0].name, "input");
        assert_eq!(jobs[0].children[0].attr("path"), Some("/a"));
        assert_eq!(jobs[1].attr("name"), Some("load"));
    }

    #[test]
    fn parses_text_content() {
        // Character data is accepted and dropped, around elements too.
        let doc = parse("<a><name>hello world</name> between <b/> after</a>").unwrap();
        let names: Vec<&str> = doc.children.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["name", "b"]);
        assert!(doc.children[0].children.is_empty());
    }

    #[test]
    fn unescapes_entities() {
        let doc = parse(r#"<a v="x &amp; y">&lt;tag&gt; &quot;q&quot; &apos;a&apos;</a>"#).unwrap();
        assert_eq!(doc.attr("v"), Some("x & y"));
        assert!(doc.children.is_empty());
    }

    #[test]
    fn rejects_unknown_entity() {
        assert_eq!(
            parse("<a>&nbsp;</a>").unwrap_err(),
            XmlError::UnknownEntity("nbsp".into())
        );
        // Dropped text is still checked, before the root and inside it.
        assert_eq!(
            parse("&nbsp;<a/>").unwrap_err(),
            XmlError::UnknownEntity("nbsp".into())
        );
        assert!(matches!(
            parse("<a><b/>x &amp y</a>").unwrap_err(),
            XmlError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(matches!(
            parse("<a><b></a></b>").unwrap_err(),
            XmlError::MismatchedTag { .. }
        ));
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(matches!(
            parse("<a><b>").unwrap_err(),
            XmlError::UnexpectedEof { .. }
        ));
        assert!(matches!(
            parse("<a attr=").unwrap_err(),
            XmlError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn rejects_empty_and_trailing() {
        assert_eq!(parse("   ").unwrap_err(), XmlError::NoRootElement);
        // Text before the root, or in its place, is not a root.
        for doc in ["hello", "hello <a/>", "<!-- c --> x <a/>", "&amp;"] {
            assert_eq!(parse(doc).unwrap_err(), XmlError::NoRootElement, "{doc}");
        }
        // Blank text before the root is not.
        assert!(parse("\u{c}<a/>").is_ok());
        assert!(matches!(
            parse("<a/><b/>").unwrap_err(),
            XmlError::TrailingContent { .. }
        ));
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse(&nested(100)).is_ok());
        assert!(parse(&nested(128)).is_ok());
        let too_deep = XmlError::TooDeep {
            limit: 128,
            offset: 3 * 128,
        };
        assert_eq!(parse(&nested(129)).unwrap_err(), too_deep);
        // Unclosed, as a hostile file would be: an error with the depth
        // and the offset, not a stack overflow.
        let err = parse(&"<a>".repeat(200_000)).unwrap_err();
        assert_eq!(err, too_deep);
        assert_eq!(
            err.to_string(),
            "elements nested deeper than 128 at byte 384"
        );
    }

    #[test]
    fn blank_text_between_comments_does_not_nest() {
        // A form feed is blank to `trim` but not to `skip_whitespace`, so
        // each run is parsed as text and dropped.
        let doc = format!("<a>{}</a>", "\u{c}<!---->".repeat(200_000));
        assert!(parse(&doc).unwrap().children.is_empty());
    }

    #[test]
    fn trailing_comment_is_fine() {
        assert!(parse("<a/> <!-- done -->").is_ok());
    }

    #[test]
    fn writer_roundtrips() {
        let doc = Element::new("workflow")
            .with_attr("name", "w \"quoted\" & more")
            .with_child(Element::new("job").with_attr("name", "a"))
            .with_child(Element::new("note").with_child(Element::new("x").with_attr("v", "x < y")));
        let rendered = doc.to_string();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a v='hello'/>").unwrap();
        assert_eq!(doc.attr("v"), Some("hello"));
    }

    #[test]
    fn attr_returns_first_match_and_none() {
        let doc = parse(r#"<a v="1"/>"#).unwrap();
        assert_eq!(doc.attr("v"), Some("1"));
        assert_eq!(doc.attr("missing"), None);
    }

    #[test]
    fn escape_covers_all_entities() {
        assert_eq!(escape(r#"<&>"'"#), "&lt;&amp;&gt;&quot;&apos;");
    }
}
