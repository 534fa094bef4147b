"""A pinned sha256 over lifted complete resolutions.

Every term action, differential, mono and epi of the window-3 complete
resolutions of pairs (`build_pair_complete_resolution`) and coresolutions
of copairs (`build_copair_complete_coresolution`) goes into one digest, and
so does the message of every build that raises.  The inputs are a pair over
D |x D with a Gorenstein projective, non-projective cokernel, the built-in
workspace's pairs and copairs, and seeded random pairs and copairs over
D |x D and the triangular extension at p = 2 and 3.  The lifting code may
get simpler, but any change to a term, to a lifted map or to which inputs
fail moves the digest.
"""

import hashlib

import numpy as np

from conftest import (double_extension, random_copair, random_pair,
                      triangular_extension)
from extalg.cli import Workspace, emit_builtin_examples
from extalg.gorenstein import (GorensteinError,
                               build_copair_complete_coresolution,
                               build_pair_complete_resolution)
from extalg.linalg import FieldSpec
from test_gorenstein import nontrivial_dd_pair
from test_resolution_fingerprint import _put, _put_module

WINDOW = 3

# recorded before the positive half was lifted over the total algebra
PINNED = "bd586bc947c3940d784a2fa15b5e0b4514da3346677d472ddaf3fdbc1b43762b"


def _inputs():
    ws = Workspace(emit_builtin_examples())
    out = [("pair", nontrivial_dd_pair())]
    out += [("pair", ws.pairs[k]) for k in sorted(ws.pairs)]
    out += [("copair", ws.copairs[k]) for k in sorted(ws.copairs)]
    for p in (2, 3):
        rng = np.random.default_rng(p)
        for make in (double_extension, triangular_extension):
            t = make(FieldSpec(p))
            out += [("pair", random_pair(t, rng, 6)) for _ in range(8)]
            out += [("copair", random_copair(t, rng, 6)) for _ in range(8)]
    return out


def lifting_fingerprint() -> str:
    h = hashlib.sha256()
    build = {"pair": build_pair_complete_resolution,
             "copair": build_copair_complete_coresolution}
    for kind, obj in _inputs():
        h.update(kind.encode())
        try:
            res = build[kind](obj, WINDOW)
        except GorensteinError as e:
            h.update(str(e).encode())
            continue
        cx = res.complex
        h.update(f"{cx.lo}:{cx.hi}".encode())
        for m in cx.modules:
            _put_module(h, m)
        for d in cx.diffs:
            _put(h, d.matrix.arr)
        _put(h, res.mono.matrix.arr)
        _put(h, res.epi.matrix.arr)
    return h.hexdigest()


def test_lifted_resolutions_match_the_pinned_fingerprint():
    assert lifting_fingerprint() == PINNED
