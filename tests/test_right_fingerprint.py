"""A pinned sha256 over the right-side outputs.

The reports of `gf_check_right`, `verify_cor48` and `verify_thm54` on
seeded random right pairs and right tuples, with the dims of every
`compatibility_report` they read, the actions of `star_module`,
`dual_module` and `injective_envelope` of the right modules those pairs
and tuples hold, and the matrices of `tensor_iso_pair` go into one digest.
The inputs come from the conftest extensions and Morita rings at p = 2, 3
and 101.  A right module may be held in any form, but any change to a
right-side verdict, report, action or comparison map moves the digest.
"""

import dataclasses
import hashlib
import json

import numpy as np

from conftest import (a2_morita_ring, double_extension, nakayama_ring,
                      product_morita_ring, random_pair, random_right_pair,
                      random_right_tuple, square_zero_extension,
                      triangular_extension)
from extalg.algebra import dual_module
from extalg.gorenstein import (compatibility_report, gf_check_right,
                               star_module, verify_cor48, zr_bimodule)
from extalg.linalg import FieldSpec
from extalg.morita import upsilon, verify_thm54
from extalg.structure import injective_envelope
from extalg.trivext import pair_to_module, tensor_iso_pair
from test_resolution_fingerprint import _put, _put_module

PRIMES = (2, 3, 101)
EXTENSIONS = (square_zero_extension, triangular_extension, double_extension)
RINGS = (nakayama_ring, a2_morita_ring, product_morita_ring)

# recorded on the implementation with a separate right module class
PINNED = "65176c90299647d6efb3e905efd2894035a6ac04c0979d2da268188a926353a8"


def _put_report(h, report):
    """A verdict, report or dict of them, as sorted JSON."""
    h.update(json.dumps(report, sort_keys=True, default=lambda o: (
        dataclasses.asdict(o) if dataclasses.is_dataclass(o)
        else int(o))).encode())


def _put_right_module(h, mod):
    """mod's action and the actions of the modules built from it."""
    _put_module(h, mod)
    _put_report(h, gf_check_right(mod))
    _put_module(h, star_module(mod)[0])
    _put_module(h, dual_module(mod))
    env, mono = injective_envelope(mod)
    _put_module(h, env)
    _put(h, mono.matrix.arr)


def _put_tensor_iso(h, t, rng):
    """tensor_iso_pair on a random right base module and a random pair."""
    w = random_right_pair(t, rng, 3).x
    _put(h, tensor_iso_pair(w, random_pair(t, rng, 3)).matrix.arr)


def right_fingerprint() -> str:
    h = hashlib.sha256()
    for p in PRIMES:
        for make in EXTENSIONS:
            t = make(FieldSpec(p))
            rng = np.random.default_rng(p)
            h.update(f"{make.__name__}@{p}".encode())
            for _ in range(4):
                rp = random_right_pair(t, rng)
                _put_right_module(h, pair_to_module(rp))
                _put_report(h, verify_cor48(rp))
                _put_tensor_iso(h, t, rng)
            for n in (t.bimodule, zr_bimodule(t)):
                _put_report(h, compatibility_report(n).dims)
        for make in RINGS:
            ring = make(FieldSpec(p))
            rng = np.random.default_rng(50 + p)
            h.update(f"{make.__name__}@{p}".encode())
            for _ in range(3):
                rt = random_right_tuple(ring, rng, 3)
                _put_right_module(h, pair_to_module(upsilon(rt)))
                _put_report(h, verify_thm54(rt))
                _put_tensor_iso(h, ring.ext, rng)
            for n in (ring.u, ring.v):
                _put_report(h, compatibility_report(n).dims)
    return h.hexdigest()


def test_right_side_outputs_match_the_pinned_fingerprint():
    assert right_fingerprint() == PINNED
