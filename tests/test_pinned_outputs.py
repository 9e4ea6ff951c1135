"""Pinned outputs: SHA-256 of the key lists of triples, structures and
automorphisms, so a refactor that changes a result or its order fails.
Regenerate the hashes only for an intended change of output.
"""

import hashlib

import pytest

from surfmoduli import catalog
from surfmoduli.beauville import search
from surfmoduli.triangles import enumerate_triples

OUTPUTS = {
    "triples": lambda G: [t.key() for t in enumerate_triples(G)],
    "hyperbolic": lambda G: [
        t.key() for t in enumerate_triples(G, hyperbolic_only=True)
    ],
    "search": lambda G: [s.key() for s in search(G)],
    "first": lambda G: [s.key() for s in search(G, stop_at_first=True)],
    "automorphisms": lambda G: [
        tuple(p.images for p in m.images) for m in G.automorphisms()
    ],
}

PINNED = {
    "C6": {
        "triples": "69c52be0c90f443d1745eaf77b29e45ea99b9929bb7de20e232d0951bceea5bc",
        "hyperbolic": "9ebe25aa70c9ef72029b7af9c7460756e2459b8317ea026c3b684f70dcf582b2",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "b7b60d6a3f69cd7f481b7ea90d40dc8931174b109975be4d5be76346160c61cd",
    },
    "S3": {
        "triples": "3ed3c8ad28c5493448ebb79480a524ba6ac575137f54d111602c15517e448aa2",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "08d6004eae24628107b39ccfecdf8a4b859eebce4bccc4f2c40fd09d83283818",
    },
    "S4": {
        "triples": "477d7a399fada590977c5782f20851319f70c79ef42c4cb43074de8fabb1b8cc",
        "hyperbolic": "60a478648c0f75d01d8ed8864fff48de48a31a3bdab5193c10ba8743128e7afb",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "a146fe9c579adfffb6b25a44ab03d7bf61b2d10d0fb761df211705a94ebd9a87",
    },
    "A4": {
        "triples": "d9f57de766c15204f0727304641bf2a6a4c416f3664d4af8b36a3213edc65237",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "cc8191e0a64f851a25c217170e0f57c6c475ee372ac2e812d770dd9159fe145b",
    },
    "D4": {
        "triples": "91a85b1d78fd778423bf5b71a82f0b3ab375699df13c50c9c3b952e008160b7a",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "24f6f4b82563ab98cf6bc0c785a98879ad92d8e142a69343cc6cfb236ddb9d61",
    },
    "D5": {
        "triples": "0d3befd5e79c316a097f4555c139e9afe61bd8bab40d642c3ad8482b9451277c",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "e7cd364512f4e5a3c6bbe3f6efc213a34ae25a75077557a6ac9d7efe41e67145",
    },
    "A5": {
        "triples": "103250ba0ad6b744f365d1789ee38108c7ac34b13001c2ca4770a2832470e4f1",
        "hyperbolic": "376863d3c197340a5772a775007ea16137770b65b8f8f84f8984d57faaacb1fe",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "3dbfd023ae509dd9c87bc247e955f0a3156d0a35186a3cc5ac6f2359e7e1b5ec",
    },
    "EA3x3": {
        "triples": "abd41a0011c2f010f92d481ab4fd7b805369c085cefedde86e57c18360bfb465",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "76bf5f491c7d60da99485205b7a8b0cdad1877c927c2c92e2f982c29f84f82f9",
    },
    "C12": {
        "triples": "55940db30c8f06a2861e48f0d349df8adf154dbae6d0fe4d34c96bc6d774884c",
        "hyperbolic": "aa8d94210d08e7e3b48cc38ab9efb1bec2348a1b0c8c615836fcd7fcb5ed656a",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "71cb2fec09bfa3893a90d959ec8c997bbd388914409534c29ed263d5588a9ece",
    },
    "C4xC2": {
        "triples": "f3001e4691dbe7fc609ddb998559cb1c6d373fabac2f8aa30b7105c226763ede",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "8f39a67d2b8b723a17a7948020b6996a17585b228d823d4fff8c13bcca83cee7",
    },
    "D4xC2": {
        "triples": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "hyperbolic": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "search": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "first": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "automorphisms": "d62d2325340cebe00c5dff573f0e848683498409694cf6dd8c39d98a5fe67a74",
    },
    "EA5x5": {
        "triples": "f041f5d841aaaa4f966dff310b6198c28e27e12a70c62666199a84703be11412",
        "hyperbolic": "f041f5d841aaaa4f966dff310b6198c28e27e12a70c62666199a84703be11412",
        "search": "49c6903f171b0db320f09be9d59cae064765c995ecdfdf93ce8483324cdc6757",
        "first": "35784e842878811fb7e73f3d4cdb0fc4ae81121b6639c564ddee845e39a8dc4b",
        "automorphisms": "dd743bee73b97a5b4b062195ad8c8b8bd657b3cc14500f9382435a0089ed26e4",
    },
    "S5": {
        "first": "32f24ee953542b6180c56f80287c03863fcf9b308b81e46131197543f8a7f8dd",
    },
    "PSL2_7": {
        "hyperbolic": "15f2789fa1d53f7f7184302ddc136fe367f2e3f4e928ee267eed266e6fb54e8b",
        "search": "224c3793f5e648112197b6ece294c2a6c718ed557c5f48c2fac46eff7bf00d21",
        "first": "f3c98d6c341ff65d0b69c508a906b9b63e2e7c81f41f86214e08c00a861f8383",
    },
    "A6": {
        "hyperbolic": "82c11eb22e4c75290a757a9cad96375b8199e62de62a43a26c75bf9ba2f51ab5",
        "first": "b552758d908698e6e5b7c34a8dca3434f0613abaeed3f3ce52bcfdcab34f0f9c",
    },
}


@pytest.mark.parametrize("name", list(PINNED))
def test_outputs_match_their_pinned_hashes(name):
    G = catalog.builtin(name)
    got = {
        item: hashlib.sha256(repr(OUTPUTS[item](G)).encode()).hexdigest()
        for item in PINNED[name]
    }
    assert got == PINNED[name]
