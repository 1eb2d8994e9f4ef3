"""Golden digests: the sha256 of every output of ``rtm run`` but timings.txt,
on a fixed list of cases, against ``tests/golden.json``.

A change that moves an output's bits on purpose pastes the digests this test
prints into golden.json and names the change in CHANGES.md.  The digests hold
for the Python and numpy versions the file records; on others the test fails
naming both.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from rtm.pipeline import parse_config, run_pipeline

from conftest import write_intensity_case, write_triples_case

GOLDEN = Path(__file__).with_name("golden.json")


def _tiny(root):
    return write_intensity_case(root, n_texts=60, n_train=45, corpus_size=60, vocab_size=60,
                                n_lex=12)


def _default_grid(root):
    # ridge, RFE, PLS, KNN, the three tree specs and AdaBoost.R2 all run
    return write_intensity_case(root, n_texts=150, n_train=120, corpus_size=150,
                                grids="default")


def _top_k(root):
    # every spec of the default grid in the model, tree and AdaBoost.R2 members too
    cfg = write_intensity_case(root, n_texts=60, n_train=45, corpus_size=60, vocab_size=60,
                               n_lex=12, grids="default")
    cfg.write_text(cfg.read_text().replace("top_k = 2", "top_k = 60"))
    return cfg


CASES = {
    "tiny-intensity": _tiny,
    "default-grid-intensity": _default_grid,
    "triples-combined": lambda root: write_triples_case(root, "combined"),
    "triples-separate": lambda root: write_triples_case(root, "separate"),
    "top-k-intensity": _top_k,
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "timings.txt"}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert {key: golden[key] for key in here} == here, (
        f"{GOLDEN.name} holds the digests of Python {golden['python']} with numpy "
        f"{golden['numpy']}; this is Python {here['python']} with numpy {here['numpy']}")
    got = {}
    for case, write in CASES.items():
        root = tmp_path / case
        root.mkdir()
        cfg = parse_config(write(root))
        run_pipeline(cfg, root / "out")
        got[case] = _digests(root / "out")
    moved = [f"{case}: {name}" for case in CASES
             for name in sorted(got[case].keys() | golden["cases"].get(case, {}).keys())
             if got[case].get(name) != golden["cases"].get(case, {}).get(name)]
    assert not moved, ("outputs differ from " + GOLDEN.name + ":\n  " + "\n  ".join(moved)
                       + "\nnew digests:\n" + json.dumps(got, indent=2))
