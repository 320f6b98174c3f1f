"""Behaviour lock for the noise engine.

Pins sha256 digests (first 16 hex digits) of four outputs on a fixed
grid: the fault-variant list, the DEM text, the bytes of the exact
detection series and the three ``ShotBatch`` arrays of a 256-shot Monte
Carlo run at a fixed master seed. The grid is {18-4-4-pruned, 18-6-3,
36-4-6} x {Z, X} x t in {1, 2, 7} x the three idle policies at device
rates, plus, per code and basis, a model with some rates set to zero so
that zero-probability variants are skipped, plus 144-12-12 at t = 7
under the "frames" policy in both bases, whose packed rows (18 words
for the sampler, 10 for the DEM) are the only ones wider than 5 words.

A second table pins the code layer, on every named code: the check
matrices ``h_x`` and ``h_z``, the supports of ``compute_logicals`` and,
where ``compute_distance`` searches the code (kernels of dimension at
most 24), the distance it returns.

A refactor leaves every digest unchanged. A change that alters an
output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says which outputs changed and why. After the two tables it prints,
per output kind, how many entries differ from the committed ones.
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
    # the widest code: its sampler rows hold 18 words at t = 7 and its DEM
    # rows 10, where the grid's hold at most 5 and 3 (36-4-6)
    for basis in ("Z", "X"):
        cases[f"144-12-12-{basis}-t7-frames"] = ("144-12-12", basis, 7, NoiseModel.device_rates())
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
        "variants": _digest(repr(tuple(variants)).encode()),
        "dem": _digest(noise.dem_to_text(dem).encode()),
        "series": _digest(series.tobytes()),
        "shots": _digest(*(repr(a.shape).encode() + a.tobytes() for a in arrays)),
    }


GOLDEN = {
    '144-12-12-X-t7-frames': {'variants': '669afdff0ed5484d', 'dem': '5fe6f847d5be5541', 'series': '059c89aed1be4823', 'shots': 'a1f145c1f6a41d46'},
    '144-12-12-Z-t7-frames': {'variants': '2fc9f6e6ba1e757b', 'dem': 'de99742b6080dcfc', 'series': '0b804d144905eb6b', 'shots': 'e238e685867f56c4'},
    '18-4-4-pruned-X-t1-cz_layers': {'variants': '9a3ee87f8283ebdc', 'dem': 'fbc70fc5214e5a64', 'series': 'da213fc968eb0e25', 'shots': 'b1d3dc5b0e916db2'},
    '18-4-4-pruned-X-t1-dense': {'variants': '923f7a8c9aa86ad3', 'dem': '1aa162cc5b3de4f3', 'series': '6ecce50ce910e5da', 'shots': '7b89ff79780076af'},
    '18-4-4-pruned-X-t1-frames': {'variants': '58d61b236d9769a7', 'dem': '7866e61bc2ce5f54', 'series': 'b50d82fcb2dd4247', 'shots': '4100859fd88dc2ac'},
    '18-4-4-pruned-X-t2-cz_layers': {'variants': 'c2c698e6c71b83c7', 'dem': '6a83d1eb9deb14a4', 'series': 'd3925e382c9c5a70', 'shots': '255b266938ac1b52'},
    '18-4-4-pruned-X-t2-dense': {'variants': 'a1cf5175a5ba279a', 'dem': '134daad2dd5afa3c', 'series': '4485264f5a04a74f', 'shots': '5615a3f30e9d2b55'},
    '18-4-4-pruned-X-t2-frames': {'variants': 'cfbd724e11004122', 'dem': 'b71eca65da4fa563', 'series': '1395a5ca5bc6ac17', 'shots': 'bb8c61c0abf8ceda'},
    '18-4-4-pruned-X-t7-cz_layers': {'variants': '14c4d3096223b83d', 'dem': 'c114789147a332cb', 'series': 'a44c3c17d5fdf4d5', 'shots': '7ad4d2d13740e2ab'},
    '18-4-4-pruned-X-t7-dense': {'variants': 'a7fb4e1f1d936392', 'dem': '192068d5bdcc0afc', 'series': '697e8d00b30eefd3', 'shots': '7fdead30eabf08ca'},
    '18-4-4-pruned-X-t7-frames': {'variants': '3e7996eef22e18de', 'dem': 'd3c32fc04eb36a01', 'series': '7fcc30c1c108601f', 'shots': 'de275d6ad91ca63f'},
    '18-4-4-pruned-X-t7-sparse': {'variants': '51c0f201de189d05', 'dem': '23448aa298058b50', 'series': '0adfbad05f703da4', 'shots': '46b8628cb51aef6a'},
    '18-4-4-pruned-Z-t1-cz_layers': {'variants': 'a931666803dfbee8', 'dem': '3350681e970bcc87', 'series': 'e29f9ddad5bee652', 'shots': '3af24ede9126a346'},
    '18-4-4-pruned-Z-t1-dense': {'variants': '50660504c8b0817f', 'dem': 'fef9a66fe5d07e91', 'series': 'd966bbc077372396', 'shots': '2d98955251f25031'},
    '18-4-4-pruned-Z-t1-frames': {'variants': '1695606f1c112231', 'dem': '8aca5ca5bf55fc89', 'series': '24f20b087ab96525', 'shots': 'ffa7e518c0bfd1a7'},
    '18-4-4-pruned-Z-t2-cz_layers': {'variants': 'd8d74cc38716c258', 'dem': '7eb5235f14b21849', 'series': '513a8f919bf80c30', 'shots': 'cd2d8753e227c0fc'},
    '18-4-4-pruned-Z-t2-dense': {'variants': '0f2ce90ef9a4e015', 'dem': 'a903177d1d2fb6f1', 'series': 'd5e08af471de2e28', 'shots': '18599520dccf8913'},
    '18-4-4-pruned-Z-t2-frames': {'variants': '7d3580d4206eddf0', 'dem': '409ce8a8b5446dfc', 'series': 'bbd33ee8bc3da0d6', 'shots': '19ae096dbefbc9ee'},
    '18-4-4-pruned-Z-t7-cz_layers': {'variants': '77952c336f5f92b0', 'dem': '9a3b927bc856d260', 'series': 'eba7f33688663aa5', 'shots': '0f8193d2ce20391b'},
    '18-4-4-pruned-Z-t7-dense': {'variants': 'e8f0270fa6c5dd52', 'dem': 'c86d9bed56a07a55', 'series': '0b8e373c0b7ada1c', 'shots': '4c61c75174adb5a9'},
    '18-4-4-pruned-Z-t7-frames': {'variants': '3f1f28dc1633cd28', 'dem': '09b4166cb3ebde46', 'series': 'e52c6bffce9feaa4', 'shots': '589a8286d2619aa6'},
    '18-4-4-pruned-Z-t7-sparse': {'variants': '31159afb60b74d73', 'dem': 'd28afa7e984809a5', 'series': '2c2be89764e59484', 'shots': '0d4fda35afa006ef'},
    '18-6-3-X-t1-cz_layers': {'variants': 'da5644a03af7e6a7', 'dem': '16e2867e4a489bd8', 'series': '1fb8182a7d426a4e', 'shots': '940d6a2d71524836'},
    '18-6-3-X-t1-dense': {'variants': '3bbac3a0200ce42f', 'dem': '6a615a5dad606ff3', 'series': '05a654903a24a89a', 'shots': 'e3b241a7ebd56432'},
    '18-6-3-X-t1-frames': {'variants': '2529f5245819cccc', 'dem': 'ea66b4614f0c599f', 'series': '4a95f37a36a0acfd', 'shots': '874732d67358cfe0'},
    '18-6-3-X-t2-cz_layers': {'variants': 'dcf5439055a8e593', 'dem': '4f704ac40bada97b', 'series': '9207307d52981475', 'shots': 'cc3585866d0587e9'},
    '18-6-3-X-t2-dense': {'variants': 'b215e71756aa4f91', 'dem': '94d1f98b93c078a5', 'series': 'a299bca8471aa042', 'shots': '07d30f926606be5f'},
    '18-6-3-X-t2-frames': {'variants': 'df78e7fa46963d4c', 'dem': '2d69caee60c67760', 'series': '79f63d6675cebb03', 'shots': 'd0e4685672d768ad'},
    '18-6-3-X-t7-cz_layers': {'variants': '54da02e79a095318', 'dem': '97d679fb9e0d1cf2', 'series': '6eb929d84aaf235c', 'shots': 'edcd3ed054951e72'},
    '18-6-3-X-t7-dense': {'variants': '319647cdfdde0f42', 'dem': '3a236ead3c585d63', 'series': '541a938ec692b5f7', 'shots': '581d733f5295797f'},
    '18-6-3-X-t7-frames': {'variants': 'e38cb3febad12b69', 'dem': 'eb27050669afc6a3', 'series': '69eeb5983522fa37', 'shots': 'd11ff7b2878217b1'},
    '18-6-3-X-t7-sparse': {'variants': '5be128df8ce3974b', 'dem': 'b00641eb9ee0b080', 'series': '0ea7d95ef90939f9', 'shots': 'b29266e8629f6445'},
    '18-6-3-Z-t1-cz_layers': {'variants': '0e0fd1f36ca8752b', 'dem': '11b663fd8187cd68', 'series': '58648291f6e404d6', 'shots': '190091f33c14fed1'},
    '18-6-3-Z-t1-dense': {'variants': 'f580170a031fc7aa', 'dem': '18fd4193562e3817', 'series': 'f95a620ef2e459bb', 'shots': '31cdb7253dd59f26'},
    '18-6-3-Z-t1-frames': {'variants': '3579e7f685f7d01c', 'dem': '033e7c5c3e88c760', 'series': '62b11fda13db3022', 'shots': 'cb06147a64e30a83'},
    '18-6-3-Z-t2-cz_layers': {'variants': 'f517e7ea43512652', 'dem': '2201b79d70776d1c', 'series': '2a82ed419a3535c0', 'shots': 'ab1c8edde72d623f'},
    '18-6-3-Z-t2-dense': {'variants': 'f66b8061e804742e', 'dem': '0e743e982667a520', 'series': '9c7040b4083f7b3f', 'shots': 'a46f95d78426df4e'},
    '18-6-3-Z-t2-frames': {'variants': '38172ca5abfad469', 'dem': '87ecc2059a611a69', 'series': 'ba404002d87add5a', 'shots': '2143a5af030f49f9'},
    '18-6-3-Z-t7-cz_layers': {'variants': '44bebdabbaf82309', 'dem': '2f9a6a92b18f7475', 'series': '78f3cfa128668c63', 'shots': '6daf1616d717f4ca'},
    '18-6-3-Z-t7-dense': {'variants': '406693eb641461c3', 'dem': '325ed85fe552b3ad', 'series': '3b4e0f8d557e4533', 'shots': '2e325dfcf29e6538'},
    '18-6-3-Z-t7-frames': {'variants': 'ba04e713d78f2851', 'dem': '9607c21f16d60132', 'series': '53437a194808fb66', 'shots': '036cbf781dc993c2'},
    '18-6-3-Z-t7-sparse': {'variants': 'ab5411de9197077e', 'dem': 'b664a74fb77ba13b', 'series': '931bb335d4682453', 'shots': 'e45ce8a4bfd9c9da'},
    '36-4-6-X-t1-cz_layers': {'variants': 'dd64b8ccd8f7a3b1', 'dem': 'fa6599411998121a', 'series': '28b85fffee73f06a', 'shots': '4a6969fc3b167e7c'},
    '36-4-6-X-t1-dense': {'variants': '64c112083c4ffff9', 'dem': '729dbe2791c8cef3', 'series': '8bf3fffd209a9d5a', 'shots': '26964f20c4dfb08e'},
    '36-4-6-X-t1-frames': {'variants': '6093789e23bfb605', 'dem': '41b1f33215413d17', 'series': 'ed9dc0e4f47b99fb', 'shots': '4f3600c377355018'},
    '36-4-6-X-t2-cz_layers': {'variants': '2207dab8b9c5fa6f', 'dem': '7a3840059aaf238a', 'series': '8451df1b784437b2', 'shots': '91ac8f4befc522ae'},
    '36-4-6-X-t2-dense': {'variants': 'ffce0feb914738dd', 'dem': '5c2d1e8cd8bc2001', 'series': '74bfd00a9952dbc4', 'shots': '2a457c18481fad32'},
    '36-4-6-X-t2-frames': {'variants': '04fa9b4f4f9b7b50', 'dem': 'f5270aaff34d3e2d', 'series': '6eb9f11f3ffab20a', 'shots': 'c072ba4fa48f606b'},
    '36-4-6-X-t7-cz_layers': {'variants': '093fc8637d4ddc02', 'dem': '1337306c70663074', 'series': 'ede2b5f38f39db46', 'shots': 'a7b14f25dde45adb'},
    '36-4-6-X-t7-dense': {'variants': '0438cc42153d28d5', 'dem': '28bec4f3f58347b8', 'series': '9d34904a5e560978', 'shots': 'dfd8f9767f7caa42'},
    '36-4-6-X-t7-frames': {'variants': 'e29cd94cf27eac77', 'dem': '313d28a2522e5762', 'series': '9a999fc94cca7c56', 'shots': '126c63647b1f5a16'},
    '36-4-6-X-t7-sparse': {'variants': '4fdab99db82e55a1', 'dem': 'db40ea54f1dfa4d3', 'series': 'ffc52dbc791dee01', 'shots': 'b55fc0b7f673ed71'},
    '36-4-6-Z-t1-cz_layers': {'variants': '08af7bcb62c1c056', 'dem': '823ffd400017061d', 'series': 'e297f4095f3444cc', 'shots': '3a751cafb998de59'},
    '36-4-6-Z-t1-dense': {'variants': '5afd6ee4a3179629', 'dem': '5ed98489cceb1a93', 'series': '45d0836cfdfd2451', 'shots': 'e162e7673238d582'},
    '36-4-6-Z-t1-frames': {'variants': '51d8326ba3ab6e7b', 'dem': '44d6d35cca0d1746', 'series': '7f3be367a7e0f754', 'shots': '17f2447736ce454b'},
    '36-4-6-Z-t2-cz_layers': {'variants': '1b204f998d063e55', 'dem': '08b99db0ee5f2788', 'series': 'fa05593e550b6e3d', 'shots': 'da60d6707ab7080a'},
    '36-4-6-Z-t2-dense': {'variants': 'f7dc72c8a2196a14', 'dem': '03cf1eb04d0607f8', 'series': '7252fffe37ddfb81', 'shots': 'aacc4ae5b0b6b9e5'},
    '36-4-6-Z-t2-frames': {'variants': 'bc8739868e07377b', 'dem': '7e0d1d4b5e38fa7d', 'series': '15c40fff1b785dfd', 'shots': '79b38ab40430aed8'},
    '36-4-6-Z-t7-cz_layers': {'variants': 'fd25ea4ded7962b1', 'dem': 'e532d62d862f8bc2', 'series': '32838dab97b1ca17', 'shots': '851824a4ec52a21e'},
    '36-4-6-Z-t7-dense': {'variants': '67e926edcdc99ee0', 'dem': '9f9dcdcb5da0ea8a', 'series': 'fd1a1208d5a8aef7', 'shots': '07314fd3570ad223'},
    '36-4-6-Z-t7-frames': {'variants': 'aea149cfbc1807ad', 'dem': '823090449a60acf5', 'series': '0c469370318c4c38', 'shots': 'eb846b8b1c856a7e'},
    '36-4-6-Z-t7-sparse': {'variants': '8e26ca5d1c02d774', 'dem': '2ecb42dce9b657e3', 'series': '033e0a839a9c8d5e', 'shots': '1324952bdcfba522'},
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


def _count_changes(new: dict, old: dict) -> list[str]:
    """One line per output kind: how many entries of ``new`` differ from
    the committed ``old``, among the entries that either table holds."""
    ids = sorted(new.keys() | old.keys())
    kinds = dict.fromkeys(kind for table in (new, old) for out in table.values() for kind in out)
    lines = []
    for kind in kinds:
        pairs = [(new.get(i, {}).get(kind), old.get(i, {}).get(kind)) for i in ids]
        pairs = [pair for pair in pairs if pair != (None, None)]
        lines.append(f"# {kind}: {sum(a != b for a, b in pairs)}/{len(pairs)} differ")
    return lines


if __name__ == "__main__":
    outputs = {case_id: _outputs(case_id) for case_id in sorted(CASES)}
    code_outputs = {cid: _code_outputs(cid) for cid in CODE_IDS}
    print("GOLDEN = {")
    for case_id, out in outputs.items():
        print(f"    {case_id!r}: {out!r},")
    print("}")
    print("CODE_GOLDEN = {")
    for cid, out in code_outputs.items():
        print(f"    {cid!r}: {out!r},")
    print("}")
    print("\n".join(_count_changes(outputs, GOLDEN) + _count_changes(code_outputs, CODE_GOLDEN)))
