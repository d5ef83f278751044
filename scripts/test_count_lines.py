#!/usr/bin/env python3
"""Tests for scripts/count_lines.py, the ruler of ROADMAP.md's line targets.

Each case is a small Rust file and the code lines it should count: test
modules, test-only fields in structs and struct literals (with comments
around them), test-only statements, raw strings, char literals and doc
comments. Stdlib only:

    python3 scripts/test_count_lines.py
"""

import importlib.util
import os
import tempfile
import textwrap
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location("count_lines", os.path.join(HERE, "count_lines.py"))
count_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(count_lines)


def count(source):
    """Counted lines of `source` (dedented) written to a temporary .rs file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.rs")
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(source).lstrip("\n"))
        return count_lines.count_file(path)


class CountLines(unittest.TestCase):
    def test_plain_code_counts_every_non_blank_line(self):
        self.assertEqual(count("""
            fn main() {

                let x = 1;
                println!("{x}");
            }
        """), 4)

    def test_comments_and_doc_comments_are_not_code(self):
        self.assertEqual(count("""
            //! Module docs.
            /// Item docs.
            // a plain comment
            fn f() {} // a trailing comment still leaves code
        """), 1)

    def test_a_test_module_is_skipped_whole(self):
        self.assertEqual(count("""
            fn kept() {}

            #[cfg(test)]
            mod tests {
                use super::*;

                #[test]
                fn t() {
                    kept();
                }
            }

            fn also_kept() {}
        """), 2)

    def test_a_test_only_field_mid_struct_hides_only_itself(self):
        self.assertEqual(count("""
            struct S {
                a: usize,
                #[cfg(test)]
                b: usize,
                c: usize,
                d: usize,
            }
        """), 5)

    def test_a_test_only_field_mid_literal_hides_only_itself(self):
        self.assertEqual(count("""
            fn make() -> S {
                S {
                    a: 1,
                    #[cfg(test)]
                    b: 2,
                    c: 3,
                    d: 4,
                }
            }
        """), 7)

    def test_a_test_only_field_that_opens_braces_ends_where_they_close(self):
        self.assertEqual(count("""
            fn make() -> S {
                S {
                    #[cfg(test)]
                    inner: Inner {
                        x: 1,
                        y: 2,
                    },
                    c: 3,
                }
            }
        """), 5)

    def test_a_test_only_field_on_its_attribute_line(self):
        self.assertEqual(count("""
            struct S {
                #[cfg(test)] b: usize,
                c: usize,
            }
        """), 3)

    def test_comments_around_a_test_only_field_do_not_widen_it(self):
        self.assertEqual(count("""
            struct S {
                a: usize,
                #[cfg(test)]
                // why the field is here
                b: usize, // and a trailing note
                c: usize,
                d: usize,
            }
        """), 5)

    def test_a_slash_pair_in_a_string_is_no_comment(self):
        self.assertEqual(count("""
            fn make() -> S {
                S {
                    #[cfg(test)]
                    url: "http://x",
                    c: 3,
                    d: 4,
                }
            }
        """), 6)

    def test_test_only_statements_are_skipped(self):
        self.assertEqual(count("""
            fn f(x: &Counter) {
                #[cfg(test)]
                x.bump();
                #[cfg(test)]
                check(
                    x,
                    1,
                );
                x.go();
            }
        """), 3)

    def test_a_test_only_item_with_more_attributes(self):
        self.assertEqual(count("""
            #[cfg(test)]
            #[derive(Debug)]
            struct Probe;
            #[cfg(test)]
            impl Probe {
                fn poke(&self) {}
            }
            struct Kept;
        """), 1)

    def test_braces_in_strings_raw_strings_and_chars_do_not_end_an_item(self):
        self.assertEqual(count("""
            #[cfg(test)]
            mod tests {
                const A: &str = "} not a brace";
                const B: &str = r#"} "raw" }"#;
                const C: char = '}';
                const D: char = '\\u{7d}';
                const E: &str = r"
            }
            ";
                fn life<'a>(s: &'a str) -> &'a str {
                    s
                }
            }
            fn kept() {}
        """), 1)

    def test_a_multi_line_raw_string_counts_its_lines(self):
        self.assertEqual(count('''
            const DOC: &str = r"
            one {
            two
            ";
            fn f() {}
        '''), 5)


if __name__ == "__main__":
    unittest.main()
