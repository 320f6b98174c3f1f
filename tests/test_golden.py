"""Behaviour lock for the noise engine.

Pins sha256 digests (first 16 hex digits) of four outputs on a fixed
grid: the fault-variant list, the DEM text, the bytes of the exact
detection series and the three ``ShotBatch`` arrays of a 256-shot Monte
Carlo run at a fixed master seed. The grid is {18-4-4-pruned, 18-6-3,
36-4-6} x {Z, X} x t in {1, 2, 7} x the three idle policies at device
rates, plus, per code and basis, a model with some rates set to zero so
that zero-probability variants are skipped.

A second table pins the code layer, on every named code: the check
matrices ``h_x`` and ``h_z``, the supports of ``compute_logicals`` and,
where ``compute_distance`` searches the code (kernels of dimension at
most 24), the distance it returns.

A refactor leaves every digest unchanged. A change that alters an
output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says which outputs changed and why.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import pytest

from bbqec import noise
from bbqec.circuit import build_syndrome_circuit
from bbqec.codes import (
    build_named_code,
    compute_distance,
    compute_logicals,
    logical_operator_set_for,
)
from bbqec.noise import IDLE_POLICIES, NoiseModel

SHOTS = 256
MASTER_SEED = 20250514
SPARSE_RATES = replace(NoiseModel.device_rates(), p_h=0.0, p_dd_z=0.0)


def _cases():
    cases = {}
    for cid in ("18-4-4-pruned", "18-6-3", "36-4-6"):
        for basis in ("Z", "X"):
            for t in (1, 2, 7):
                for policy in IDLE_POLICIES:
                    model = NoiseModel.device_rates(idle_policy=policy)
                    cases[f"{cid}-{basis}-t{t}-{policy}"] = (cid, basis, t, model)
            cases[f"{cid}-{basis}-t7-sparse"] = (cid, basis, 7, SPARSE_RATES)
    return cases


CASES = _cases()


@lru_cache(maxsize=None)
def _code(cid):
    code = build_named_code(cid)
    return code, logical_operator_set_for(code)


@lru_cache(maxsize=None)
def _circuit(cid, basis, t):
    return build_syndrome_circuit(_code(cid)[0], t, basis=basis)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


def _outputs(case_id):
    cid, basis, t, model = CASES[case_id]
    code, logicals = _code(cid)
    circ = _circuit(cid, basis, t)
    variants = noise.enumerate_fault_variants(circ, model, code=code)
    dem = noise.build_dem(circ, model, basis, code=code, logicals=logicals)
    series = noise.expected_detection_series(
        circ, model, code=code, basis=basis, logicals=logicals
    )
    batch = noise.run_monte_carlo(
        circ, model, SHOTS, basis, code=code, logicals=logicals,
        master_seed=MASTER_SEED,
    )
    arrays = (batch.detections, batch.final_syndrome, batch.logical_flips)
    return {
        "variants": _digest(repr(variants).encode()),
        "dem": _digest(noise.dem_to_text(dem).encode()),
        "series": _digest(series.tobytes()),
        "shots": _digest(*(repr(a.shape).encode() + a.tobytes() for a in arrays)),
    }


GOLDEN = {
    '18-4-4-pruned-X-t1-cz_layers': {'variants': '9a3ee87f8283ebdc', 'dem': '9de573b884bd89de', 'series': 'da213fc968eb0e25', 'shots': 'b1d3dc5b0e916db2'},
    '18-4-4-pruned-X-t1-dense': {'variants': '923f7a8c9aa86ad3', 'dem': '4f8f77bcb23c3c39', 'series': '6ecce50ce910e5da', 'shots': '7b89ff79780076af'},
    '18-4-4-pruned-X-t1-frames': {'variants': '58d61b236d9769a7', 'dem': '19f9d3f76318297c', 'series': 'b50d82fcb2dd4247', 'shots': '4100859fd88dc2ac'},
    '18-4-4-pruned-X-t2-cz_layers': {'variants': 'c2c698e6c71b83c7', 'dem': '0019c02a77ad3955', 'series': 'd3925e382c9c5a70', 'shots': '255b266938ac1b52'},
    '18-4-4-pruned-X-t2-dense': {'variants': 'a1cf5175a5ba279a', 'dem': 'aba5b04c0996f0a6', 'series': '4485264f5a04a74f', 'shots': '5615a3f30e9d2b55'},
    '18-4-4-pruned-X-t2-frames': {'variants': 'cfbd724e11004122', 'dem': 'ff08f445436c3ec2', 'series': '1395a5ca5bc6ac17', 'shots': 'bb8c61c0abf8ceda'},
    '18-4-4-pruned-X-t7-cz_layers': {'variants': '14c4d3096223b83d', 'dem': '610357d23424b125', 'series': 'a44c3c17d5fdf4d5', 'shots': '7ad4d2d13740e2ab'},
    '18-4-4-pruned-X-t7-dense': {'variants': 'a7fb4e1f1d936392', 'dem': '3224dd695905c9a5', 'series': '697e8d00b30eefd3', 'shots': '7fdead30eabf08ca'},
    '18-4-4-pruned-X-t7-frames': {'variants': '3e7996eef22e18de', 'dem': '9292f55f7dd854f0', 'series': '7fcc30c1c108601f', 'shots': 'de275d6ad91ca63f'},
    '18-4-4-pruned-X-t7-sparse': {'variants': '51c0f201de189d05', 'dem': '86af58ebc8a12f1d', 'series': '0adfbad05f703da4', 'shots': '46b8628cb51aef6a'},
    '18-4-4-pruned-Z-t1-cz_layers': {'variants': 'a931666803dfbee8', 'dem': 'd10c67f25c3e277b', 'series': 'e29f9ddad5bee652', 'shots': '3af24ede9126a346'},
    '18-4-4-pruned-Z-t1-dense': {'variants': '50660504c8b0817f', 'dem': '3b31c8a497558c2e', 'series': 'd966bbc077372396', 'shots': '2d98955251f25031'},
    '18-4-4-pruned-Z-t1-frames': {'variants': '1695606f1c112231', 'dem': 'cbf9e4d2f897d480', 'series': '24f20b087ab96525', 'shots': 'ffa7e518c0bfd1a7'},
    '18-4-4-pruned-Z-t2-cz_layers': {'variants': 'd8d74cc38716c258', 'dem': '5ebb5a782561190e', 'series': '513a8f919bf80c30', 'shots': 'cd2d8753e227c0fc'},
    '18-4-4-pruned-Z-t2-dense': {'variants': '0f2ce90ef9a4e015', 'dem': 'c49d61d33706f5c0', 'series': 'd5e08af471de2e28', 'shots': '18599520dccf8913'},
    '18-4-4-pruned-Z-t2-frames': {'variants': '7d3580d4206eddf0', 'dem': '488d19f586b24f9d', 'series': 'bbd33ee8bc3da0d6', 'shots': '19ae096dbefbc9ee'},
    '18-4-4-pruned-Z-t7-cz_layers': {'variants': '77952c336f5f92b0', 'dem': '5b2a3e65a67f592d', 'series': 'eba7f33688663aa5', 'shots': '0f8193d2ce20391b'},
    '18-4-4-pruned-Z-t7-dense': {'variants': 'e8f0270fa6c5dd52', 'dem': '1ecb7b979bb640be', 'series': '0b8e373c0b7ada1c', 'shots': '4c61c75174adb5a9'},
    '18-4-4-pruned-Z-t7-frames': {'variants': '3f1f28dc1633cd28', 'dem': 'd57e7af6bf9fafa8', 'series': 'e52c6bffce9feaa4', 'shots': '589a8286d2619aa6'},
    '18-4-4-pruned-Z-t7-sparse': {'variants': '31159afb60b74d73', 'dem': '7ced4aa4693b4b06', 'series': '2c2be89764e59484', 'shots': '0d4fda35afa006ef'},
    '18-6-3-X-t1-cz_layers': {'variants': 'da5644a03af7e6a7', 'dem': '2484d8eee7302acd', 'series': '1fb8182a7d426a4e', 'shots': '940d6a2d71524836'},
    '18-6-3-X-t1-dense': {'variants': '3bbac3a0200ce42f', 'dem': '0642e1656d37b600', 'series': '05a654903a24a89a', 'shots': 'e3b241a7ebd56432'},
    '18-6-3-X-t1-frames': {'variants': '2529f5245819cccc', 'dem': '8b354749f6c45741', 'series': '4a95f37a36a0acfd', 'shots': '874732d67358cfe0'},
    '18-6-3-X-t2-cz_layers': {'variants': 'dcf5439055a8e593', 'dem': 'b83b477bf840c692', 'series': '9207307d52981475', 'shots': 'cc3585866d0587e9'},
    '18-6-3-X-t2-dense': {'variants': 'b215e71756aa4f91', 'dem': '6f93395b9687d99b', 'series': 'a299bca8471aa042', 'shots': '07d30f926606be5f'},
    '18-6-3-X-t2-frames': {'variants': 'df78e7fa46963d4c', 'dem': 'b7d218e728b2ef8e', 'series': '79f63d6675cebb03', 'shots': 'd0e4685672d768ad'},
    '18-6-3-X-t7-cz_layers': {'variants': '54da02e79a095318', 'dem': 'b7e7d2a07e85bc13', 'series': '6eb929d84aaf235c', 'shots': 'edcd3ed054951e72'},
    '18-6-3-X-t7-dense': {'variants': '319647cdfdde0f42', 'dem': '088fb78329687a21', 'series': '541a938ec692b5f7', 'shots': '581d733f5295797f'},
    '18-6-3-X-t7-frames': {'variants': 'e38cb3febad12b69', 'dem': '7d27bbb242712a8f', 'series': '69eeb5983522fa37', 'shots': 'd11ff7b2878217b1'},
    '18-6-3-X-t7-sparse': {'variants': '5be128df8ce3974b', 'dem': 'e63b48ba85e311b0', 'series': '0ea7d95ef90939f9', 'shots': 'b29266e8629f6445'},
    '18-6-3-Z-t1-cz_layers': {'variants': '0e0fd1f36ca8752b', 'dem': 'fbe20f2e6427dccf', 'series': '58648291f6e404d6', 'shots': '190091f33c14fed1'},
    '18-6-3-Z-t1-dense': {'variants': 'f580170a031fc7aa', 'dem': '6f55dc17232b5c96', 'series': 'f95a620ef2e459bb', 'shots': '31cdb7253dd59f26'},
    '18-6-3-Z-t1-frames': {'variants': '3579e7f685f7d01c', 'dem': '9fca97f4d65236ea', 'series': '62b11fda13db3022', 'shots': 'cb06147a64e30a83'},
    '18-6-3-Z-t2-cz_layers': {'variants': 'f517e7ea43512652', 'dem': '30fef749a6490c9f', 'series': '2a82ed419a3535c0', 'shots': 'ab1c8edde72d623f'},
    '18-6-3-Z-t2-dense': {'variants': 'f66b8061e804742e', 'dem': '358c71b4983e2a7a', 'series': '9c7040b4083f7b3f', 'shots': 'a46f95d78426df4e'},
    '18-6-3-Z-t2-frames': {'variants': '38172ca5abfad469', 'dem': '77b2eba73058fd1f', 'series': 'ba404002d87add5a', 'shots': '2143a5af030f49f9'},
    '18-6-3-Z-t7-cz_layers': {'variants': '44bebdabbaf82309', 'dem': '56c379928e0fb430', 'series': '78f3cfa128668c63', 'shots': '6daf1616d717f4ca'},
    '18-6-3-Z-t7-dense': {'variants': '406693eb641461c3', 'dem': 'f06354ef8de031a3', 'series': '3b4e0f8d557e4533', 'shots': '2e325dfcf29e6538'},
    '18-6-3-Z-t7-frames': {'variants': 'ba04e713d78f2851', 'dem': '853a261fda6d70db', 'series': '53437a194808fb66', 'shots': '036cbf781dc993c2'},
    '18-6-3-Z-t7-sparse': {'variants': 'ab5411de9197077e', 'dem': '2d9c4cdddbfb940c', 'series': '931bb335d4682453', 'shots': 'e45ce8a4bfd9c9da'},
    '36-4-6-X-t1-cz_layers': {'variants': 'dd64b8ccd8f7a3b1', 'dem': '144ae919a644f8af', 'series': '28b85fffee73f06a', 'shots': '4a6969fc3b167e7c'},
    '36-4-6-X-t1-dense': {'variants': '64c112083c4ffff9', 'dem': '15432e57af82aedb', 'series': '8bf3fffd209a9d5a', 'shots': '26964f20c4dfb08e'},
    '36-4-6-X-t1-frames': {'variants': '6093789e23bfb605', 'dem': 'dc53c0d298f24971', 'series': 'ed9dc0e4f47b99fb', 'shots': '4f3600c377355018'},
    '36-4-6-X-t2-cz_layers': {'variants': '2207dab8b9c5fa6f', 'dem': 'ed55086bcb5f8785', 'series': '8451df1b784437b2', 'shots': '91ac8f4befc522ae'},
    '36-4-6-X-t2-dense': {'variants': 'ffce0feb914738dd', 'dem': '9838cfd736a91b94', 'series': '74bfd00a9952dbc4', 'shots': '2a457c18481fad32'},
    '36-4-6-X-t2-frames': {'variants': '04fa9b4f4f9b7b50', 'dem': 'c53f789e3208ba99', 'series': '6eb9f11f3ffab20a', 'shots': 'c072ba4fa48f606b'},
    '36-4-6-X-t7-cz_layers': {'variants': '093fc8637d4ddc02', 'dem': '8e40c1228f38d148', 'series': 'ede2b5f38f39db46', 'shots': 'a7b14f25dde45adb'},
    '36-4-6-X-t7-dense': {'variants': '0438cc42153d28d5', 'dem': 'd97a6d4b5f7c0e28', 'series': '9d34904a5e560978', 'shots': 'dfd8f9767f7caa42'},
    '36-4-6-X-t7-frames': {'variants': 'e29cd94cf27eac77', 'dem': '49f17c4c86663e91', 'series': '9a999fc94cca7c56', 'shots': '126c63647b1f5a16'},
    '36-4-6-X-t7-sparse': {'variants': '4fdab99db82e55a1', 'dem': 'f029cf1474afbc98', 'series': 'ffc52dbc791dee01', 'shots': 'b55fc0b7f673ed71'},
    '36-4-6-Z-t1-cz_layers': {'variants': '08af7bcb62c1c056', 'dem': '370c8b641afe0548', 'series': 'e297f4095f3444cc', 'shots': '3a751cafb998de59'},
    '36-4-6-Z-t1-dense': {'variants': '5afd6ee4a3179629', 'dem': '38ad5d4e271dece9', 'series': '45d0836cfdfd2451', 'shots': 'e162e7673238d582'},
    '36-4-6-Z-t1-frames': {'variants': '51d8326ba3ab6e7b', 'dem': '2ed5646ccf0cc4d1', 'series': '7f3be367a7e0f754', 'shots': '17f2447736ce454b'},
    '36-4-6-Z-t2-cz_layers': {'variants': '1b204f998d063e55', 'dem': '943fa8dff464361b', 'series': 'fa05593e550b6e3d', 'shots': 'da60d6707ab7080a'},
    '36-4-6-Z-t2-dense': {'variants': 'f7dc72c8a2196a14', 'dem': '1a68ee89f8e2e002', 'series': '7252fffe37ddfb81', 'shots': 'aacc4ae5b0b6b9e5'},
    '36-4-6-Z-t2-frames': {'variants': 'bc8739868e07377b', 'dem': '3a2b8691e3a91b1d', 'series': '15c40fff1b785dfd', 'shots': '79b38ab40430aed8'},
    '36-4-6-Z-t7-cz_layers': {'variants': 'fd25ea4ded7962b1', 'dem': 'bb323eaa4f47503f', 'series': '32838dab97b1ca17', 'shots': '851824a4ec52a21e'},
    '36-4-6-Z-t7-dense': {'variants': '67e926edcdc99ee0', 'dem': '077ec163b245abcb', 'series': 'fd1a1208d5a8aef7', 'shots': '07314fd3570ad223'},
    '36-4-6-Z-t7-frames': {'variants': 'aea149cfbc1807ad', 'dem': 'fac65715dbf417e8', 'series': '0c469370318c4c38', 'shots': 'eb846b8b1c856a7e'},
    '36-4-6-Z-t7-sparse': {'variants': '8e26ca5d1c02d774', 'dem': 'db7dafa23d43392a', 'series': '033e0a839a9c8d5e', 'shots': '1324952bdcfba522'},
}


CODE_IDS = (
    "18-4-4", "18-4-4-pruned", "18-6-3", "36-4-6", "54-4-8", "90-8-10", "144-12-12",
)


def _code_outputs(cid):
    code = build_named_code(cid)
    logicals = compute_logicals(code)
    out = {
        "checks": _digest(
            *(repr(m.bits.shape).encode() + m.bits.tobytes() for m in (code.h_x, code.h_z))
        ),
        "logicals": _digest(repr((logicals.x_supports, logicals.z_supports)).encode()),
    }
    distance = compute_distance(code)
    if distance.computed:
        out["distance"] = distance.value
    return out


CODE_GOLDEN = {
    '18-4-4': {'checks': '64ebb4a00e4ae70f', 'logicals': 'ed54bc4608b3825b', 'distance': 4},
    '18-4-4-pruned': {'checks': '64ebb4a00e4ae70f', 'logicals': 'ed54bc4608b3825b', 'distance': 4},
    '18-6-3': {'checks': '64ebb4a00e4ae70f', 'logicals': 'af1919573166aab2', 'distance': 3},
    '36-4-6': {'checks': '1d1e9adc781814b4', 'logicals': '598daa50d18a9047', 'distance': 6},
    '54-4-8': {'checks': 'e877c531e233725f', 'logicals': 'fac7a0a4e8e47db8'},
    '90-8-10': {'checks': '8af5bece682e65c4', 'logicals': '6f49cdebfc6ebfbe'},
    '144-12-12': {'checks': '6fefbc53119ed47c', 'logicals': '20b4291c39a619db'},
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_outputs_match_golden_digests(case_id):
    assert _outputs(case_id) == GOLDEN[case_id]


def test_golden_table_covers_the_grid():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("cid", CODE_IDS)
def test_logicals_and_distance_match_golden(cid):
    assert _code_outputs(cid) == CODE_GOLDEN[cid]


def test_code_golden_table_covers_every_named_code():
    assert set(CODE_GOLDEN) == set(CODE_IDS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case_id in sorted(CASES):
        print(f"    {case_id!r}: {_outputs(case_id)!r},")
    print("}")
    print("CODE_GOLDEN = {")
    for cid in CODE_IDS:
        print(f"    {cid!r}: {_code_outputs(cid)!r},")
    print("}")
