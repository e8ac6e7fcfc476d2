"""The refactor oracle: the bytes of the catalog-wide outputs.

A change that only restructures the code must leave every verdict, every
first failing index and every byte of these documents as they are.  Each
command runs in-process through ``convcheck.cli.main``; the per-ring
contexts keep their memos across the calls, so after the first full run
the others mostly render.
"""

import hashlib
import re

import pytest

from convcheck.cli import main

REPORT_MARKDOWN = "4b4c215bd2d1306c53bc0672dc669794137dd4e4de8181c579772d6010b57340"


OUTPUTS = [
    ("verify --all --format json",
     "04db3ddc987293f759fec7cf500e68643ede857f439fcacd789af31442ccd49d"),
    ("verify --all --format json --max-n 2",
     "ae7749f52a346b53daa067949f03c440acd622b1e3130be2b55d8582dd98e505"),
    ("verify --all --format markdown", REPORT_MARKDOWN),
    ("report", REPORT_MARKDOWN),
    ("report --format json",
     "ab7078ffbe5e7ea3bc6ea8abf20c027d2cf4fef825341f06a59fc50cb35c7f6f"),
    ("report --variant corrected",
     "c3d3269e6b6574648c2533655d785b81626b35658f43aa7f053438c2fe1e85c5"),
    # the number layer: each value printed whole, 965 to 1,291 characters
    ("compute bernoulli 600",
     "3e755967706f8f59db66bbb6b62da5666489aa0b58c880da6b3d5edc3882bb12"),
    ("compute euler 600",
     "7eafb61f0f6dc9982c4a1a6657f7be6ff75d03933c0e4ac2cd5bff708eb59dd6"),
    ("compute genocchi 600",
     "acaa9452533ccf1623c4e26ad42186ce8644b09b561f981ac2104d313e65c2e5"),
    # past the tangent list: pinned by zeta(2000) and beta(2001) from
    # cold, and equal to what the tangent recurrence printed
    ("compute bernoulli 2000",
     "64681a52cd532321459e7e30cdeba7927ac5c1ba3492ed7a23d4c3474a17f8ae"),
    ("compute euler 2000",
     "d773e4b1f33393fb7754d45dee1343005e45953ee10395b7f5fbe2a81fb2d7f6"),
    # the truncated EGF series of each kind, 61 coefficients
    ("series bernoulli --order 60",
     "0d00c73a240203d70c2a5ab0b174b18e7271dff125635a97dcf50ff99b9e793b"),
    ("series euler --order 60",
     "1f1f644b98d83e3b0a653ec260722d632743d2071814f9a52a26b6e3032161fe"),
    ("series genocchi --order 60",
     "7919e43907e8bca38950443242509b498822647f098565408bbd18d91f105583"),
    ("series bernoulli_poly --order 60",
     "b492b5d94c3c6817859bfebc8660e86f829aea78bd6a1ab5ad71b7e71567ea43"),
    ("series euler_poly --order 60",
     "e76956ec1b202f179ccb34098fe099a7c167593fccae868720680fc1e2207b3e"),
    ("series genocchi_poly --order 60",
     "bf0589ad3548e1c92f45ea6aaf4c290965361e2e7ce7125b56b8482b32e4db95"),
]


@pytest.mark.parametrize("command, sha256", OUTPUTS)
def test_output_bytes_are_pinned(command, sha256, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256


def test_consecutive_in_process_calls_share_no_state(capsys):
    # the parser is built once per process: an option given to one call
    # is not a default of the next
    assert main(["verify", "--id", "T2.1b"]) == 0
    capsys.readouterr()
    assert main(["verify", "--all", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == dict(OUTPUTS)["verify --all --format json"]
    assert main(["compute", "euler_poly", "3", "--at", "x=1/2"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["compute", "euler_poly", "3"]) == 0
    assert capsys.readouterr().out == "x^3 - 3/2*x^2 + 1/4\n"


# the failing as-printed records: each failure diff prints a polynomial
# in the letters x1, x2 (generic ring) or a + b*sqrt(d) (root rings),
# whatever coordinates the ring computes in; the elapsed time of the
# run is masked
@pytest.mark.parametrize("ident, sha256", [
    ("L1.2S", "0a4ea8be90c0d1ab134bce7e2eaf8ea499c1035aa7ac12f94d8d0a8ec0214919"),
    ("R1.1", "4a17f49277b7de8a13ad9f6499b281d85b113e2e5144cb68ac5e5bdd4dba3bad"),
    ("R1.2", "2c0ed5ed07e2d563846cf25c9237c2cb90061572a6cccf8e3f43f64b03df46e9"),
    ("T3.3", "fa05659383b64a73a03813005d6c83d5112d9d4fccc091954c7101c03868f8c2"),
    ("T3.5b", "7f5bbef6c23c078b971855c375eea18ec36052042cd0378c3418123d64574fbf"),
    ("T3.6a", "0fadf45458b35e4911284b2cf971ad19e32b3ef4dcfc35e2f2eba899c6222ded"),
    ("T3.6b", "a98e7de6ec4735ec73ab104bec3d13f4c5032af5052e468c7a0485be67dfd1f3"),
    ("BINET.C", "7e4c0991115b57c0aa9d11fe872394860b4ec363ca0a23817e433fed2d150b6b"),
    ("C2.1.2", "ec4dc41f31b9e2f978fa3dd59b4497d7684f04888f2701feb7b7e6c814c5e3ce"),
    ("C3.1", "2e332293dfb9d97b26df42ea8bf91e1007bd8749bc19ffc03a9281e2a3394df8"),
    ("C3.2", "1a891e968ff85e5c1de470b151eb334ff99a2059d6d023154be992cd9e361a1c"),
    ("C3.3", "b7a0779c73c607c4c3d25b789865666b58d4f5ae91c79de2b19c59dd506f3f8c"),
    ("C3.4a", "8c66d040ff02259f51784a12175736dd32b7f8934f0c55fc1198551a6ca6c608"),
    ("C3.4b", "c445ec38eeaccc20d4d96603573222c07c766a0026d452a1dd0cd695391fb134"),
    ("C3.5a", "b023a216e48e02fac5bf1a194d6212e0bc0b97f097fecf9c8b7ee70123c1c04a"),
    ("C3.5b", "9baea1ce432ed80a17d3186ce081466fba4e514f8617aee96d7d7bfd04307b64"),
    ("C3.6a", "3c0e1822db48dade4948bd9ee0ffab885219db68dee669c7dbb06bfcb69bcb6d"),
    ("C3.6b", "f4d8147ff5143252f3677621a2a9ed31085d0e7e3e4e3e9d7361e74bcaad22f7"),
    ("C3.8", "66eb3c297f11dec5ecc7396959603e50f1ab4237683712c4205def2cd8d34627"),
    ("C3.10", "e20d2c14a3f7d4b38960230a398b0c46564ff885969e814886f6d36ff3a8b020"),
    ("C3.11a", "e493ec6d5ae2e6829371d00d49a61dc799728655ca49ec22b73fa179568c0710"),
    ("C3.11b", "f1eeaeb3f269f15e605cae87c4591463165bb5bfb7308ecab7c5b7d1b6cad4fb"),
    ("C3.12b", "edf1f69265878880775e6dc4d7bc986f3444f8ac2dc51b5e1af7e2900595f5af"),
    ("C3.13a", "c2854d869c50fa98dfbb376fa42763c05bc11540285192c92f3430f445485558"),
    ("C3.13b", "cf818bbf15a23817d425b37963f41aea276da89f9065f85bc148cb4e1ebdb396"),
    ("C4.1", "4c8ff9d7b2aa5fce4a39006f55790a84941aa3ee9e272840453e9917fbbdeaeb"),
    ("C4.5", "1f9df0e83054ecc68d832ab7ee701f6b9fb6d1272a25deb7b45c9bd8609592ff"),
    ("C4.6", "2f844f37d665602852be4fd9c9a4c45dc7229aea296c08c037456aa99a8f3ba8"),
])
def test_failure_diffs_are_pinned(ident, sha256, capsys):
    assert main(["verify", "--id", ident, "--format", "text"]) == 0
    out = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", capsys.readouterr().out)
    assert "FAIL" in out and "diff = " in out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
