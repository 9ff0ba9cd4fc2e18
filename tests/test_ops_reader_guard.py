"""Static guard: the operators in rindex/ops/ score an index through
`IndexSearcher.reader()`, the one doc space of every live segment.  Only
the operators whose output is per segment by design read
`IndexSearcher.readers`, and no operator decodes posting blobs itself
(the reader's `decoded` / `positions_for` do).  AST only: no Ray, no
index build."""

import ast
import pathlib

import rindex.ops

OPS_DIR = pathlib.Path(rindex.ops.__file__).parent

# one Bloom sidecar per segment; an output that counts segments; a
# pushdown read of each segment's docs.parquet
PER_SEGMENT = {
    ("cms.py", "build_segment_blooms"),
    ("cms.py", "q_bloom_segment_skip_documents"),
    ("fulltext.py", "q_realtime_get_documents"),
}
CODEC_DECODERS = {"decode_posting", "decode_posting_fast", "decode_positions"}


def _modules():
    for path in sorted(OPS_DIR.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _enclosing_functions(tree):
    """node -> name of the outermost function defining it."""
    owner = {}
    for top in ast.walk(tree):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                owner.setdefault(node, top.name)
    return owner


def test_only_per_segment_ops_read_segment_readers():
    found = set()
    for name, tree in _modules():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "readers":
                found.add((name, owner.get(node, "<module>")))
    assert found == PER_SEGMENT


def test_ops_never_decode_postings_themselves():
    hits = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "rindex.codec":
                hits += [(name, a.name) for a in node.names
                         if a.name != "NORM_DECODE_TABLE"]
            elif isinstance(node, ast.Import):
                hits += [(name, a.name) for a in node.names
                         if a.name == "rindex.codec"]
            elif isinstance(node, ast.Attribute) and node.attr in CODEC_DECODERS:
                hits.append((name, node.attr))
            elif isinstance(node, ast.Name) and node.id in CODEC_DECODERS:
                hits.append((name, node.id))
    assert hits == []
