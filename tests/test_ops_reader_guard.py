"""Static guards on rindex/ops/.  The operators score an index through
`IndexSearcher.reader()`, the one doc space of every live segment.  Only
the operators whose output is per segment by design read
`IndexSearcher.readers`, and no operator decodes posting blobs itself
(the reader's `decoded` / `positions_for` do).  Every coarse-bucket
shuffle is `ops.util.bucket_map_groups`, and no bucket modulus is read
from the environment.  AST only (plus one pyarrow-only unit test): no
Ray, no index build."""

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


# the one coarse-bucket shuffle: ops/util.py's key adder and groupby
BUCKET_HELPER = {
    ("util.py", "add_bucket_column"),
    ("util.py", "bucket_map_groups"),
}


def test_bucket_shuffles_go_through_the_one_helper():
    """The `_gb` shuffle column, and any groupby over a private `_`
    column followed by map_groups, exist only inside the helper."""
    found = set()
    for name, tree in _modules():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "_gb":
                found.add((name, owner.get(node, "<module>")))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "map_groups"
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "groupby"
                and any(isinstance(a, ast.Constant)
                        and str(a.value).startswith("_")
                        for a in node.value.args)
            ):
                found.add((name, owner.get(node, "<module>")))
    assert found == BUCKET_HELPER


def test_no_bucket_modulus_from_the_environment():
    hits = [
        (name, node.value)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in ("RINDEX_CONV_BUCKETS", "RINDEX_USER_BUCKETS")
    ]
    assert hits == []


def test_bucket_column_drops_schema_metadata():
    """A parquet read carries pandas schema metadata; the key adder drops
    it so the shuffle's block schemas stay hashable."""
    import pyarrow as pa

    from rindex.ops.util import add_bucket_column, md5_key

    t = pa.table({"k": [3, 130, 7], "s": ["a", "b", "a"]}).replace_schema_metadata(
        {b"pandas": b"{}"}
    )
    out = add_bucket_column(t, "k", 127)
    assert out.schema.metadata is None
    assert out.column_names == ["k", "s", "_gb"]
    assert out["_gb"].to_pylist() == [3, 3, 7]
    hashed = add_bucket_column(t, md5_key("s"), 127)["_gb"].to_pylist()
    assert hashed[0] == hashed[2]
    hash(out.schema)
