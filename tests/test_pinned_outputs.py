"""Byte-for-byte pins on the program's outputs.

Every corpus instance is reported at its first 13 searched covectors, which
include the document's own: 78 orientations, each as ``report --json`` and as
the text report (156 outputs), with the document path taken out.  Every
degree-0..3 slice basis of every corpus graph is pinned as its text form.
A change that claims to keep behaviour must keep both digests.
"""

import contextlib
import hashlib
import io

from gkm.cli import main
from gkm.cohomology import basis
from gkm.corpus import corpus, corpus_names
from gkm.graph import find_index_increasing_xi
from gkm.jsonio import dumps

REPORTS_SHA256 = "9659c07066822921cbc426e07aecca688425fe1f02dff8c33b2a087aa95430e0"
BASES_SHA256 = "04e4399977a352b5217ab652d4c4f52f691f281e2244b795b9047299736b569e"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def test_report_outputs_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for name in corpus_names():
        inst = corpus(name)
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(inst.graph, inst.xi), encoding="utf-8")
        covectors = find_index_increasing_xi(inst.graph, count=13)
        assert inst.xi in covectors
        for xi in covectors:
            flag = ",".join(str(c) for c in xi)
            for extra in (["--json"], []):
                text = _run(["report", str(path), "--xi", flag, *extra])
                digest.update(text.replace(str(path), "<document>").encode())
    assert digest.hexdigest() == REPORTS_SHA256


def test_slice_bases_are_pinned():
    digest = hashlib.sha256()
    for name in corpus_names():
        graph = corpus(name).graph
        for d in range(4):
            for element in basis(graph, d):
                digest.update(f"{name} {d} {element!r}\n".encode())
    assert digest.hexdigest() == BASES_SHA256
