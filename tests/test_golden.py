"""Golden outputs: the CSVs of a fixed matrix of runs, pinned byte for byte.

Each case pins the full `summary.csv` text and a SHA-256 of
`utilization.csv`, `transfers.csv` and `staging.csv`. A change that is meant
to keep behaviour must leave every value here untouched; a change that moves
one on purpose re-pins it and records the before and after values, with the
reason, in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.engine import Simulation

SEED = 7
HASHED = ("utilization.csv", "transfers.csv", "staging.csv")

# elasticity x locality raises DeadlockError (tests/test_termination.py):
# locality holds ready tasks unassigned, so the elasticity policy never
# grows a pool, and there is no output to pin.
CASES = [
    (name, 0.05 if name == "elasticity" else 0.02, scheduler, "")
    for name in BUILTIN_NAMES
    for scheduler in ("capacity", "locality", "dha")
    if (name, scheduler) != ("elasticity", "locality")
]
# Probe transfers at start, transfer retries and a client poll interval:
# paths the builtins leave at their defaults.
CASES.append(("dynamic-drug", 0.02, "dha", "probe-retry-poll"))
# The same paths under locality, its probes at start included.
CASES.append(("montage-like", 0.02, "locality", "probe-retry-poll"))
# The scheduler hears of a freed worker 5 s late (`mock_sync_lag_s`), so a
# DHA re-scheduling pass can dispatch a task it has yet to visit.
CASES.append(("dynamic-drug", 0.02, "dha", "sync-lag"))
# Every function declares a cost hint, so DHA's first predictions come from
# the hint rather than the true cost.
CASES.append(("drug-like", 0.02, "dha", "cost-hint"))
# Transfers queue behind the concurrency cap long enough that DHA's staging
# estimate, which charges for each link's queue, changes where tasks go.
CASES.append(("montage-like", 0.1, "dha", ""))


def _scenario(name, scale, variant):
    sc = generate_builtin_scenario(name, scale)
    if variant == "probe-retry-poll":
        sc.defaults = dataclasses.replace(
            sc.defaults, probe_at_init=True, transfer_failure_rate=0.3
        )
        sc.network = dataclasses.replace(sc.network, poll_interval_s=5.0)
    elif variant == "sync-lag":
        sc.defaults = dataclasses.replace(sc.defaults, mock_sync_lag_s=5.0)
    elif variant == "cost-hint":
        sc.functions = {
            name: dataclasses.replace(
                fn, cost_hint_fixed_s=0.5 * fn.true_fixed_s, cost_hint_rate_s_per_B=1e-7
            )
            for name, fn in sc.functions.items()
        }
    return sc


def run_case(name, scale, scheduler, variant, out_dir):
    """(summary.csv text, {csv name: SHA-256}) of one seeded run."""
    sim = Simulation(_scenario(name, scale, variant), scheduler_kind=scheduler, seed=SEED)
    sim.run().emit(out_dir)
    summary = (out_dir / "summary.csv").read_text()
    digests = {
        csv_name: hashlib.sha256((out_dir / csv_name).read_bytes()).hexdigest()
        for csv_name in HASHED
    }
    return summary, digests


GOLDEN = {
    ('drug-like', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n3319.383991,0.529000,0,385,77,10,9\n',
        {
            'utilization.csv': '092f68574bf130a2d0fb038c2f73884535cdc868f38574161fbec0632df8c50b',
            'transfers.csv': '422c29636db17845c47c27238c5d43826215e86cdad125e7a4693bc4e1b77a41',
            'staging.csv': 'fd9d51339cc506e663a69d8b269d65c5bbea8b58e08bb78983ffc3df289a50a0',
        },
    ),
    ('drug-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2522.837066,1.336000,0,410,54,9,8\n',
        {
            'utilization.csv': '14428f4f68038175cf6c7fb07f57dd76b5aa8374732912ce3a3baf80d7b4a9fb',
            'transfers.csv': '990d01827b24d4a7e85c641396c5456855f17f897602e80edc04fd11aadc8d7c',
            'staging.csv': 'd7e632b3ad693516fa0fb52007b9a67f02db69434fbc64ff02ead276f0256d91',
        },
    ),
    ('drug-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2394.228986,1.227000,0,411,55,9,6\n',
        {
            'utilization.csv': 'ab24299815889109395d7175326dc78a5f067fa673ff4e8d7f27812f33212953',
            'transfers.csv': 'a3b607c2affbf51fc71e483dfdea62f1b941ab32eedf21ce08ba96177c7b36a2',
            'staging.csv': 'c65a0734049e77d88764e0ebdc9cb535f23c283877b97976d62405da73196795',
        },
    ),
    ('montage-like', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n310.176058,1.560000,0,51,127,25,25\n',
        {
            'utilization.csv': 'f864269316771c4f41dc3d19b09fd1710303a670142c2fb1f7605bfc5e78e090',
            'transfers.csv': '4fb66d8988b980b697eff61f0825c1d93f602c5a77531c285480ec74c658a8a7',
            'staging.csv': '37945ea0283f31b19e9f518007965f14c793205fd568d5719f2ca1c2acd47b88',
        },
    ),
    ('montage-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n259.153481,3.980000,0,44,145,19,20\n',
        {
            'utilization.csv': 'e787e1c2883b1db1f3f71d87aa5f76e08bfa680cb12d577ec344d88f8b9c23a5',
            'transfers.csv': '2b15e7f73818e6ef8da469aa77fcedca85943f88a190c0e71f8c3367b2fc66fb',
            'staging.csv': '0b4d4d20b9a71cb8a8cad7d8e85d20bc2b0b503abf0c53fb34dc6bcf166a3fc9',
        },
    ),
    ('montage-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n256.311745,4.425000,0,46,141,19,22\n',
        {
            'utilization.csv': '9b0d90eeaed0d8690eebbf8d3f0a93794dc4b6b9658f0d6f359bce5cc1d91603',
            'transfers.csv': 'fda84d30f12ec003a638b6b4a09c6b918829feae258cae4026146ef6773d45d9',
            'staging.csv': '113c62b264e7ae94956f177ed3d84af65e31c4aa5d93835e60c34ea352fc1427',
        },
    ),
    ('dynamic-drug', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n7339.588812,0.838000,0,88,131,11,11\n',
        {
            'utilization.csv': '7294682d47931997b3ad1cc49e90851088ae709b82e2c5e42e4401a29fc2b4fc',
            'transfers.csv': 'd32460b4b4114b9e927c344bf1deeae9123416f7993533038b21004c11222e8e',
            'staging.csv': 'e8a4be89537c93181d2e392792b5bef61afe1493ac82dbcabe9c21483276c94b',
        },
    ),
    ('dynamic-drug', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2704.390886,1.535000,0,44,179,9,9\n',
        {
            'utilization.csv': '51c0273ee792cbbe5c7fdd5813d50448b0c041c9a97cfd68b849e71628d67ca5',
            'transfers.csv': 'aadc7767c8a84d16531b38e49b69f64027af1c6f31a72891edf01e0aacb24059',
            'staging.csv': 'cb7108bb6aac7e85768ed26712928b4fbc61f2fe789b2e4fb03c3b1073b6bd08',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2749.918119,1.897000,0,43,180,10,8\n',
        {
            'utilization.csv': '3e7833eee40e8a4e0fb1a1e80fc6edf443f1c911439a8623e6bce95a885ddd84',
            'transfers.csv': 'ee6618757499b97b07bd9924025a96a2ff75dadac1a7c26e2dbbdc62c1803aa2',
            'staging.csv': '850ad707a408dca7249a78cdb685696e7a271a60be1f0634cfaf3c809df077fc',
        },
    ),
    ('dynamic-montage', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n332.303028,1.480000,0,29,143,28,28\n',
        {
            'utilization.csv': 'c2942bd244a1532b1fbecee2cfbfd168a110393235fba31d6ca3176c95f8c344',
            'transfers.csv': '08a6ae63ab1319cb6a431094af1f5f389bfdf4cdfd43ca976725de8bb4e27623',
            'staging.csv': '1a659e229d193288820a92f4ed074dfb348bf508e04febe30e532372525f7b8e',
        },
    ),
    ('dynamic-montage', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n270.487897,3.940000,0,34,152,20,22\n',
        {
            'utilization.csv': '26a8a1572bdf8c68435e36025e6932626b1af19f2ca2c71bb92ec83fbe4446ef',
            'transfers.csv': 'af168db62fcf0a58be7153b00dabd59f8bf9c753a20ceef24a04f179f119da77',
            'staging.csv': 'd8c0b1383635943f1e4749ffdbfc34b1c0a7b588bde0f21acd83ace5f5160c77',
        },
    ),
    ('dynamic-montage', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n267.858241,3.990000,0,36,149,21,22\n',
        {
            'utilization.csv': '77b7bbc79a208c34b7ad8a3de80955befef092155d5f4003b22619853ff93401',
            'transfers.csv': '8f942a461851c6ff38946fd04968ddd47326876c84321d762400a50cddda15e5',
            'staging.csv': '7fefc50e05a775149cb10b47d278cc465b9003a900e37c4c85eb2630453de44d',
        },
    ),
    ('elasticity', 0.05, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_ep1,tasks_ep2,tasks_ep3\n1090.500000,300.000000,0,11,9,0\n',
        {
            'utilization.csv': 'bbd4c7ee6585851d54be66ad5b1adcd6006c60f1998503fb6a45feb1113e9c72',
            'transfers.csv': '61bc703c49f8ae47692382af50240a766a23ccbf8c13465b5f0d0ffe9e19f1d5',
            'staging.csv': '6fc025dfc7fb829d1a2f8a1cece5b0dae44b6817f34ed336ea0aecce3c07bfb5',
        },
    ),
    ('elasticity', 0.05, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_ep1,tasks_ep2,tasks_ep3\n131.000000,0.000000,0,12,5,3\n',
        {
            'utilization.csv': '2e4e9fb359ee25e298095ea7b267a513109a607f4895908e2bec2e600ff08f1d',
            'transfers.csv': 'a15d71528e47821b32df8c2cff21ff968809d5612d6919a5f3fb76d4053deb65',
            'staging.csv': 'e4a4179ba37e7f171e0be3fb2d0f0b1266d7d577a4ab879ea5033c13096c17f4',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', 'probe-retry-poll'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2755.000000,1.995829,0,44,179,10,8\n',
        {
            'utilization.csv': 'a6e43ed910a5843c68e67e14db70e9a078311ccea4e9520a1e93b541804bd10b',
            'transfers.csv': '971f87339e89cd024f986ba3a867bc5978ec05232507334301b4133342feddb7',
            'staging.csv': '004532d55c4194b1f8fc6f6e572df94cb0b20e96924af21ffc214ae41a92c6d2',
        },
    ),
    ('montage-like', 0.02, 'locality', 'probe-retry-poll'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n275.000000,4.260829,0,44,145,19,20\n',
        {
            'utilization.csv': '9e0f157a2b04944301155bfd975f3f059f94d6dc64d3c90b1a602587c6977a5e',
            'transfers.csv': '1b0f4591e5a9da5fe3d97225f6888353cc6568b2275fe50432b32e07de22f1a5',
            'staging.csv': '0584fbcc912cbc84c664fb12705c149ac73ac3b07e501487d04baeab572ee13e',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', 'sync-lag'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2780.837063,1.922000,0,42,181,10,8\n',
        {
            'utilization.csv': '9ad2fe878b08a41eb1ea1926e5308594858088d86ac8722e17aea8f5fce3e119',
            'transfers.csv': '538600a3b6b2c784efd61c4c460dc0a5df8c009d9be275a9dbf0fb273084bd55',
            'staging.csv': '3a486897ce76b4478ca211fca31205c97da9e9aa4dec1619c37415926e91ba37',
        },
    ),
    ('drug-like', 0.02, 'dha', 'cost-hint'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2396.099631,1.137000,0,413,50,10,8\n',
        {
            'utilization.csv': '76041cb11197640a6fc2ca2ac588eeb8b19b92b292edb8eb5911d760e5c93a78',
            'transfers.csv': 'c007e5b515c4095934a0978349d3201f081e09f6a53c2cbb62ac2c423409b206',
            'staging.csv': '4b6f4e58cffa396fc8fca093ddba47d9b95f8592ac7694b99664c1f44949024a',
        },
    ),
    ('montage-like', 0.1, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n250.705638,19.400000,0,268,667,95,105\n',
        {
            'utilization.csv': '0d8b61f20aa69aac591aa0dbd662191c4604bddd6bb27382a930527558711ecd',
            'transfers.csv': 'd49b25a15ad860657dec9f2982303a94e36bdc3919538daddbdf7ce775944f26',
            'staging.csv': '5aff57dcbc7bbb79dc919743e2250de0dc0015da91e7cc68b7a139f5abe8fd1b',
        },
    ),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(str(p) for p in c if p))
def test_outputs_match_golden(case, tmp_path):
    summary, digests = run_case(*case, tmp_path)
    want_summary, want_digests = GOLDEN[case]
    assert summary == want_summary
    assert digests == want_digests
