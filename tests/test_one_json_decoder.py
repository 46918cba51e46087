"""The package decodes outside JSON in one function, so every JSON input meets one set of rules.

Bundle headers, fixture lines, human tallies and client replies all pass through
``textcore.decode_json``, which turns every decoder failure into one error class.
A second decode site would need its own copy of that handling; this scan of the
package source keeps one from coming back unnoticed.
"""

import ast
from pathlib import Path

import pytest

import noisekit

# The names in the json module that decode text or a file.
DECODING_NAMES = {"loads", "load", "JSONDecoder"}
SOURCES = sorted(Path(noisekit.__file__).parent.glob("*.py"))


def json_decode_sites(source: str) -> list[str]:
    """``function: line`` of each use of a json decoding name in `source`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "json"
                and child.attr in DECODING_NAMES
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module == "json"
                and {alias.name for alias in child.names} & DECODING_NAMES
            ):
                found.append(f"{function}: {child.lineno}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_sources_found():
    assert "textcore.py" in {path.name for path in SOURCES}


def test_json_decoded_only_in_decode_json():
    sites = {path.name: json_decode_sites(path.read_text(encoding="utf-8")) for path in SOURCES}
    sites = {name: [site.split(":")[0] for site in found] for name, found in sites.items() if found}
    assert sites == {"textcore.py": ["decode_json"]}


@pytest.mark.parametrize(
    "source, sites",
    [
        ("x = json.loads(s)", ["<module>: 1"]),
        ("def f(s):\n    return json.loads(s)", ["f: 2"]),
        ("class C:\n    def m(self, fh):\n        return json.load(fh)", ["m: 3"]),
        ("from json import loads", ["<module>: 1"]),
        ("def f(s):\n    return json.JSONDecoder().raw_decode(s)", ["f: 2"]),
        ("s = json.dumps(x)", []),
        ("x = self.loads(s)", []),
    ],
)
def test_scan_finds_each_form(source, sites):
    assert json_decode_sites(source) == sites
