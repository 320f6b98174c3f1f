"""Behaviour lock for the noise engine.

Pins sha256 digests (first 16 hex digits) of four outputs on a fixed
grid: the fault-variant list, the DEM text, the bytes of the exact
detection series and the three ``ShotBatch`` arrays of a 256-shot Monte
Carlo run at a fixed master seed. The grid is {18-4-4-pruned, 18-6-3,
36-4-6} x {Z, X} x t in {1, 2, 7} x the three idle policies at device
rates, plus, per code and basis, a model with some rates set to zero so
that zero-probability variants are skipped.

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
from bbqec.codes import build_named_code, logical_operator_set_for
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
    '18-4-4-pruned-X-t1-cz_layers': {'variants': '9a3ee87f8283ebdc', 'dem': '9de573b884bd89de', 'series': 'da213fc968eb0e25', 'shots': '28e4ee9a73febefe'},
    '18-4-4-pruned-X-t1-dense': {'variants': '923f7a8c9aa86ad3', 'dem': '4f8f77bcb23c3c39', 'series': '6ecce50ce910e5da', 'shots': '3b3815b3d3df2ac4'},
    '18-4-4-pruned-X-t1-frames': {'variants': '58d61b236d9769a7', 'dem': '19f9d3f76318297c', 'series': 'b50d82fcb2dd4247', 'shots': '93ee8abc7c2f64f8'},
    '18-4-4-pruned-X-t2-cz_layers': {'variants': 'c2c698e6c71b83c7', 'dem': '0019c02a77ad3955', 'series': 'd3925e382c9c5a70', 'shots': 'd6c2180f2f21f1bf'},
    '18-4-4-pruned-X-t2-dense': {'variants': 'a1cf5175a5ba279a', 'dem': 'aba5b04c0996f0a6', 'series': '4485264f5a04a74f', 'shots': '35cfe4c5628a9f81'},
    '18-4-4-pruned-X-t2-frames': {'variants': 'cfbd724e11004122', 'dem': 'ff08f445436c3ec2', 'series': '1395a5ca5bc6ac17', 'shots': 'aef07bd25b73f04c'},
    '18-4-4-pruned-X-t7-cz_layers': {'variants': '14c4d3096223b83d', 'dem': '610357d23424b125', 'series': 'a44c3c17d5fdf4d5', 'shots': '2e8de5e901e4309d'},
    '18-4-4-pruned-X-t7-dense': {'variants': 'a7fb4e1f1d936392', 'dem': '3224dd695905c9a5', 'series': '697e8d00b30eefd3', 'shots': 'ba9e792cd6ba68f5'},
    '18-4-4-pruned-X-t7-frames': {'variants': '3e7996eef22e18de', 'dem': '9292f55f7dd854f0', 'series': '7fcc30c1c108601f', 'shots': '40f1ecb88493620f'},
    '18-4-4-pruned-X-t7-sparse': {'variants': '51c0f201de189d05', 'dem': '86af58ebc8a12f1d', 'series': '0adfbad05f703da4', 'shots': 'd131a96f5033f713'},
    '18-4-4-pruned-Z-t1-cz_layers': {'variants': 'a931666803dfbee8', 'dem': 'd10c67f25c3e277b', 'series': 'e29f9ddad5bee652', 'shots': '51af643907c1a0e2'},
    '18-4-4-pruned-Z-t1-dense': {'variants': '50660504c8b0817f', 'dem': '3b31c8a497558c2e', 'series': 'd966bbc077372396', 'shots': 'ec809231fbaa0f2f'},
    '18-4-4-pruned-Z-t1-frames': {'variants': '1695606f1c112231', 'dem': 'cbf9e4d2f897d480', 'series': '24f20b087ab96525', 'shots': '837a0bcade5fc796'},
    '18-4-4-pruned-Z-t2-cz_layers': {'variants': 'd8d74cc38716c258', 'dem': '5ebb5a782561190e', 'series': '513a8f919bf80c30', 'shots': 'b95a226527274477'},
    '18-4-4-pruned-Z-t2-dense': {'variants': '0f2ce90ef9a4e015', 'dem': 'c49d61d33706f5c0', 'series': 'd5e08af471de2e28', 'shots': '83e216fc239656f7'},
    '18-4-4-pruned-Z-t2-frames': {'variants': '7d3580d4206eddf0', 'dem': '488d19f586b24f9d', 'series': 'bbd33ee8bc3da0d6', 'shots': '08b12b0385c63dc4'},
    '18-4-4-pruned-Z-t7-cz_layers': {'variants': '77952c336f5f92b0', 'dem': '5b2a3e65a67f592d', 'series': 'eba7f33688663aa5', 'shots': '42890863b210f22e'},
    '18-4-4-pruned-Z-t7-dense': {'variants': 'e8f0270fa6c5dd52', 'dem': '1ecb7b979bb640be', 'series': '0b8e373c0b7ada1c', 'shots': '8094206204c98110'},
    '18-4-4-pruned-Z-t7-frames': {'variants': '3f1f28dc1633cd28', 'dem': 'd57e7af6bf9fafa8', 'series': 'e52c6bffce9feaa4', 'shots': '38a9afddce462957'},
    '18-4-4-pruned-Z-t7-sparse': {'variants': '31159afb60b74d73', 'dem': '7ced4aa4693b4b06', 'series': '2c2be89764e59484', 'shots': '0031f9e380a39f5d'},
    '18-6-3-X-t1-cz_layers': {'variants': 'da5644a03af7e6a7', 'dem': '2484d8eee7302acd', 'series': '1fb8182a7d426a4e', 'shots': '3501c66044c7f53c'},
    '18-6-3-X-t1-dense': {'variants': '3bbac3a0200ce42f', 'dem': '0642e1656d37b600', 'series': '05a654903a24a89a', 'shots': '21b30c57cf87e5f0'},
    '18-6-3-X-t1-frames': {'variants': '2529f5245819cccc', 'dem': '8b354749f6c45741', 'series': '4a95f37a36a0acfd', 'shots': 'f1d85b76215b674c'},
    '18-6-3-X-t2-cz_layers': {'variants': 'dcf5439055a8e593', 'dem': 'b83b477bf840c692', 'series': '9207307d52981475', 'shots': '3e2b259fac3361ff'},
    '18-6-3-X-t2-dense': {'variants': 'b215e71756aa4f91', 'dem': '6f93395b9687d99b', 'series': 'a299bca8471aa042', 'shots': 'a708dc7961f9acf5'},
    '18-6-3-X-t2-frames': {'variants': 'df78e7fa46963d4c', 'dem': 'b7d218e728b2ef8e', 'series': '79f63d6675cebb03', 'shots': 'b97fe08d1f62f58a'},
    '18-6-3-X-t7-cz_layers': {'variants': '54da02e79a095318', 'dem': 'b7e7d2a07e85bc13', 'series': '6eb929d84aaf235c', 'shots': 'b9b51552213eedec'},
    '18-6-3-X-t7-dense': {'variants': '319647cdfdde0f42', 'dem': '088fb78329687a21', 'series': '541a938ec692b5f7', 'shots': '4fbe354fe400feb5'},
    '18-6-3-X-t7-frames': {'variants': 'e38cb3febad12b69', 'dem': '7d27bbb242712a8f', 'series': '69eeb5983522fa37', 'shots': '2fb4ae008c26d4e1'},
    '18-6-3-X-t7-sparse': {'variants': '5be128df8ce3974b', 'dem': 'e63b48ba85e311b0', 'series': '0ea7d95ef90939f9', 'shots': '8d0b890d290c9f7c'},
    '18-6-3-Z-t1-cz_layers': {'variants': '0e0fd1f36ca8752b', 'dem': 'fbe20f2e6427dccf', 'series': '58648291f6e404d6', 'shots': '6d10959d907af29b'},
    '18-6-3-Z-t1-dense': {'variants': 'f580170a031fc7aa', 'dem': '6f55dc17232b5c96', 'series': 'f95a620ef2e459bb', 'shots': '74bb4f23d23ff392'},
    '18-6-3-Z-t1-frames': {'variants': '3579e7f685f7d01c', 'dem': '9fca97f4d65236ea', 'series': '62b11fda13db3022', 'shots': '3a4dacee77646fc5'},
    '18-6-3-Z-t2-cz_layers': {'variants': 'f517e7ea43512652', 'dem': '30fef749a6490c9f', 'series': '2a82ed419a3535c0', 'shots': '2832235455df13a7'},
    '18-6-3-Z-t2-dense': {'variants': 'f66b8061e804742e', 'dem': '358c71b4983e2a7a', 'series': '9c7040b4083f7b3f', 'shots': '3f7a8516d264d44d'},
    '18-6-3-Z-t2-frames': {'variants': '38172ca5abfad469', 'dem': '77b2eba73058fd1f', 'series': 'ba404002d87add5a', 'shots': '6e6ab18e645655e5'},
    '18-6-3-Z-t7-cz_layers': {'variants': '44bebdabbaf82309', 'dem': '56c379928e0fb430', 'series': '78f3cfa128668c63', 'shots': 'b01bf12e8af84c3c'},
    '18-6-3-Z-t7-dense': {'variants': '406693eb641461c3', 'dem': 'f06354ef8de031a3', 'series': '3b4e0f8d557e4533', 'shots': 'e9c62120a41a2709'},
    '18-6-3-Z-t7-frames': {'variants': 'ba04e713d78f2851', 'dem': '853a261fda6d70db', 'series': '53437a194808fb66', 'shots': '0d9eec326419a94f'},
    '18-6-3-Z-t7-sparse': {'variants': 'ab5411de9197077e', 'dem': '2d9c4cdddbfb940c', 'series': '931bb335d4682453', 'shots': '0cb6ac416b32d37a'},
    '36-4-6-X-t1-cz_layers': {'variants': 'dd64b8ccd8f7a3b1', 'dem': '144ae919a644f8af', 'series': '28b85fffee73f06a', 'shots': '205c886443f60f30'},
    '36-4-6-X-t1-dense': {'variants': '64c112083c4ffff9', 'dem': '15432e57af82aedb', 'series': '8bf3fffd209a9d5a', 'shots': '83d1b41263c928a8'},
    '36-4-6-X-t1-frames': {'variants': '6093789e23bfb605', 'dem': 'dc53c0d298f24971', 'series': 'ed9dc0e4f47b99fb', 'shots': '7a5c4db5a1d33083'},
    '36-4-6-X-t2-cz_layers': {'variants': '2207dab8b9c5fa6f', 'dem': 'ed55086bcb5f8785', 'series': '8451df1b784437b2', 'shots': 'dbea3b75678d94a8'},
    '36-4-6-X-t2-dense': {'variants': 'ffce0feb914738dd', 'dem': '9838cfd736a91b94', 'series': '74bfd00a9952dbc4', 'shots': 'cf5bed7aac02aef4'},
    '36-4-6-X-t2-frames': {'variants': '04fa9b4f4f9b7b50', 'dem': 'c53f789e3208ba99', 'series': '6eb9f11f3ffab20a', 'shots': '78d4b99d474bed63'},
    '36-4-6-X-t7-cz_layers': {'variants': '093fc8637d4ddc02', 'dem': '8e40c1228f38d148', 'series': 'ede2b5f38f39db46', 'shots': '72cfdf4e111b999f'},
    '36-4-6-X-t7-dense': {'variants': '0438cc42153d28d5', 'dem': 'd97a6d4b5f7c0e28', 'series': '9d34904a5e560978', 'shots': '203ffd21e77c84f0'},
    '36-4-6-X-t7-frames': {'variants': 'e29cd94cf27eac77', 'dem': '49f17c4c86663e91', 'series': '9a999fc94cca7c56', 'shots': '040fef520c7d287c'},
    '36-4-6-X-t7-sparse': {'variants': '4fdab99db82e55a1', 'dem': 'f029cf1474afbc98', 'series': 'ffc52dbc791dee01', 'shots': 'a3def049d3a1dd89'},
    '36-4-6-Z-t1-cz_layers': {'variants': '08af7bcb62c1c056', 'dem': '370c8b641afe0548', 'series': 'e297f4095f3444cc', 'shots': 'ac03300fb72894c8'},
    '36-4-6-Z-t1-dense': {'variants': '5afd6ee4a3179629', 'dem': '38ad5d4e271dece9', 'series': '45d0836cfdfd2451', 'shots': 'c2dfa82a3d234f4b'},
    '36-4-6-Z-t1-frames': {'variants': '51d8326ba3ab6e7b', 'dem': '2ed5646ccf0cc4d1', 'series': '7f3be367a7e0f754', 'shots': '3a3ef201eb5dd9b4'},
    '36-4-6-Z-t2-cz_layers': {'variants': '1b204f998d063e55', 'dem': '943fa8dff464361b', 'series': 'fa05593e550b6e3d', 'shots': '2bd39ed60e9e7e26'},
    '36-4-6-Z-t2-dense': {'variants': 'f7dc72c8a2196a14', 'dem': '1a68ee89f8e2e002', 'series': '7252fffe37ddfb81', 'shots': '8ec326f65e3a8303'},
    '36-4-6-Z-t2-frames': {'variants': 'bc8739868e07377b', 'dem': '3a2b8691e3a91b1d', 'series': '15c40fff1b785dfd', 'shots': 'eb2eb7359730d430'},
    '36-4-6-Z-t7-cz_layers': {'variants': 'fd25ea4ded7962b1', 'dem': 'bb323eaa4f47503f', 'series': '32838dab97b1ca17', 'shots': '8971e3d391f01042'},
    '36-4-6-Z-t7-dense': {'variants': '67e926edcdc99ee0', 'dem': '077ec163b245abcb', 'series': 'fd1a1208d5a8aef7', 'shots': '0c350e283472c889'},
    '36-4-6-Z-t7-frames': {'variants': 'aea149cfbc1807ad', 'dem': 'fac65715dbf417e8', 'series': '0c469370318c4c38', 'shots': '1a9da1b4c6bed065'},
    '36-4-6-Z-t7-sparse': {'variants': '8e26ca5d1c02d774', 'dem': 'db7dafa23d43392a', 'series': '033e0a839a9c8d5e', 'shots': 'be915e9849b8396f'},
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_outputs_match_golden_digests(case_id):
    assert _outputs(case_id) == GOLDEN[case_id]


def test_golden_table_covers_the_grid():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case_id in sorted(CASES):
        print(f"    {case_id!r}: {_outputs(case_id)!r},")
    print("}")
