"""Golden hashes of the generated datasets.

Every graph the experiments run on comes out of ``repro.datasets``.  These
tests pin the exact bytes of the generated edge arrays: the SHA-256 of the
int64 ``src`` bytes followed by the int64 ``dst`` bytes.  A change that
moves any hash here produces different graphs, which makes it a new
generator rather than an optimisation of the old one; do not regenerate
the hashes to make such a change pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.catalog import PAPER_DATASET_NAMES, load_dataset
from repro.datasets.generators import social_graph


def edge_digest(graph) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.src, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.dst, dtype=np.int64).tobytes())
    return digest.hexdigest()


CATALOG_GOLDEN = {
    ("roadnet-pa", 0.25, 0): "f0d60115be90c3a22302f91e88c9d688ffb2a9ad63b201bb25f004d871341f9a",
    ("youtube", 0.25, 0): "51b6fe02ce8d885f2ee97e62d95a85af1b1280d4723257b4d6f92f60f98e6e6a",
    ("roadnet-tx", 0.25, 0): "285344186b9e32556e749673092a5de9bd32e92c074d0da283b6e1f724503eec",
    ("pokec", 0.25, 0): "4be68122218f6e0d1061a58cc66096adb6426e0f589cf81d53173ced2885d505",
    ("roadnet-ca", 0.25, 0): "a728320e4aa5bbe98822ae19ab7c7b408f67fe0e8328facf62bbdb9da4206793",
    ("orkut", 0.25, 0): "c502359705207c5e01f93bcfc5becea6cd9dec1719d1b048a2f224a738014392",
    ("soclivejournal", 0.25, 0): "7b8d0f84ea22ae807d6bb8d2eb705eb8a8e69fc5be56628ae52addd774f1c1f7",
    ("follow-jul", 0.25, 0): "1eacde53fade3eaca484d2cfd8f5b728c8a4c5ceb68a3d0fb9219c495822f7c0",
    ("follow-dec", 0.25, 0): "5c9d023861a92e29094a879469dc3e8cec84065b8e29546743915b290d55a924",
    ("roadnet-pa", 1.0, 0): "7fc8a00315d9c9bd220111d89ebccc6e49fe7ba77ce15e5f766c65638f562fbc",
    ("youtube", 1.0, 0): "99dd1d29cc0ee2bf2aa9a725d656945d3ad945236d4dd8cea976296e9c2d5f75",
    ("roadnet-tx", 1.0, 0): "2c343813d24cfa84834ecc6a6d7de5abeb6488fd6efa38013a7c7862648a4321",
    ("pokec", 1.0, 0): "78d6f0ed226ba91fddbe3445575d1af7ba8b373f5d1d975ebe09d0a8211f732c",
    ("roadnet-ca", 1.0, 0): "3e6b30a49ec78c60818a830a8179e7a294248bad08f112cb9fa83f78bf7d8ebc",
    ("orkut", 1.0, 0): "4b3dbbc66cc4f8adce0229634fe107e166c96fbdd2fdde968a2c29882c81a87b",
    ("soclivejournal", 1.0, 0): "aa3e49984759ac1fd54a758d67e378faedbb018da5da5e94e2e1d2320575ce35",
    ("follow-jul", 1.0, 0): "44b3ab14f497a5d3791e9809b72b2b56a436add37f4412c62baf012653023d13",
    ("follow-dec", 1.0, 0): "f0e8a402304cd31f1f832bc99b4d1170743ed4132614d535f364a7ff276a2581",
    ("roadnet-pa", 0.25, 1): "dad2c06723c66abe66191ca745c40ac861f2185b7eecade4d2d3d6cc41be9a69",
    ("youtube", 0.25, 1): "096eb1e4a11d8f0f632449644a3e352ba11c8268d6791d345c699bf77b63b820",
    ("roadnet-tx", 0.25, 1): "a88356914483723587b05e71b149e391a3267c03e463328e71d28e86b5f09fd0",
    ("pokec", 0.25, 1): "e6daf67af0def569ffd3c85a284a5d72d1e9f3aa4eba97c5870e8702e05ae0fb",
    ("roadnet-ca", 0.25, 1): "fc78a56d362dcae7b6cf513b83ba2ef9504b0a85153e44bedc67d1f9a0814b60",
    ("orkut", 0.25, 1): "4f485b8ea1446e18271efa6b188f5481fa9d0220ac631581c1ec6e6866180f40",
    ("soclivejournal", 0.25, 1): "f825e2c1340f3c99df45267707a5f4beac4db547fa1bfed80e2c12bea3bc048a",
    ("follow-jul", 0.25, 1): "5ba3549b151c405060d27325e29c34d8d9953cdf165cdc9b49571036d2cbc408",
    ("follow-dec", 0.25, 1): "53feede0cfa0fab9ff2949ab0cb3727a04ad6b1e56de731db0ed8a79ceafba0c",
}

#: Direct ``social_graph`` calls covering the options the catalog does not
#: exercise, or exercises only in combination.
DIRECT_GOLDEN = {
    "undirected": (
        dict(num_vertices=300, num_edges=1200, undirected=True, triadic_closure=0.3, seed=3),
        "daca1b3affa22f843c79df6a6e91165b8f6a89e4d408b47b432cf39c224cfbb8",
    ),
    "no_connect": (
        dict(num_vertices=200, num_edges=800, connect=False, seed=4),
        "5a06e19620c68b70f8c8228d22f34d8383d1b27a0b916ca13df355ed2eaee331",
    ),
    "unshuffled": (
        dict(num_vertices=200, num_edges=800, shuffle_ids=False, seed=5),
        "260922470bbc9425d2131cf2cc8d531dde4b6e1ab153c8ba694ae247a06791fb",
    ),
    "components": (
        dict(num_vertices=150, num_edges=500, num_components=5, seed=6),
        "e513e4e81943c8a79b7132f7edac88e984268f6008144c689ffccf720ea06599",
    ),
    # Three-vertex satellites do not fit: they shrink to pairs.
    "pair_satellites": (
        dict(num_vertices=20, num_edges=40, num_components=5, seed=7),
        "42e017b2b1a2a6a3c263266ddfb34a3e227cadd5d5da04b289114088042d52f7",
    ),
    # Even pairs do not fit: the satellite count is capped.
    "capped_satellites": (
        dict(num_vertices=20, num_edges=40, num_components=8, seed=8),
        "321fc2b730127d16ebb900ff5a8dad8ad41d61c0c6b62d033e89b812b4b74ee1",
    ),
    "leaves_superstars": (
        dict(
            num_vertices=800,
            num_edges=3000,
            exponent=2.1,
            reciprocity=0.3,
            zero_in_fraction=0.5,
            zero_out_fraction=0.3,
            superstar_count=8,
            superstar_boost=30.0,
            num_components=3,
            seed=9,
        ),
        "2ab34e00c10ff29d506396bd680fa0716aca95b6fe94ad938b00275f4b105291",
    ),
    "no_closure": (
        dict(num_vertices=100, num_edges=300, reciprocity=0.0, triadic_closure=0.0, seed=2),
        "39bed3b4c5c0898a4a7694726a876fd9a19cae149f2420dd85d96fc65430e321",
    ),
    # More arcs requested than the vertices allow: the attempt cap ends the loop.
    "saturated": (
        dict(num_vertices=10, num_edges=200, seed=1),
        "ec8339f4612d4162fad36dcf0b082594dc8f7162b6fbd96928a0f45e8c33f4f6",
    ),
}


def test_catalog_golden_covers_every_dataset():
    for scale, seed in ((0.25, 0), (1.0, 0), (0.25, 1)):
        assert {name for name, s, sd in CATALOG_GOLDEN if (s, sd) == (scale, seed)} == set(
            PAPER_DATASET_NAMES
        )


@pytest.mark.parametrize(
    "name,scale,seed", sorted(CATALOG_GOLDEN), ids=lambda value: str(value)
)
def test_catalog_dataset_bytes_are_pinned(name, scale, seed):
    graph = load_dataset(name, scale=scale, seed=seed)
    assert edge_digest(graph) == CATALOG_GOLDEN[(name, scale, seed)]


@pytest.mark.parametrize("case", sorted(DIRECT_GOLDEN))
def test_social_graph_bytes_are_pinned(case):
    kwargs, expected = DIRECT_GOLDEN[case]
    assert edge_digest(social_graph(**kwargs)) == expected
