"""Golden workspace bytes for a pinned config.

The CLI sequence gen, train fl/ser/churn, evaluate none/late/hybrid runs
on acceptance criterion 10's config, and every workspace file it writes
must hash to the sha256 pinned here: cohort files, WAV clips, model blobs,
assignment tables and metric reports. `pipeline.run_experiment` on the
same config and seed must produce the same assignment and report bytes.
"""

import contextlib
import hashlib
import io

import pytest

from churnfusion import cli, fusion, metrics, pipeline

GOLDEN_CONFIG = (
    "seed = 7\n"
    "rfe_k = 4\n"
    "ser_corpus_per_class = 4\n"
    "synth.n_customers = 60\n"
    "synth.labeled_fl_fraction = 0.3\n"
    "coreg.max_iterations = 2\n"
    "churn_train.epochs = 25\n"
    "ser_train.epochs = 25\n"
)

GOLDEN_WORKSPACE_SHA256 = {
    "data/audio/c00000.wav": "46ce4e22c7b0ec2ddec54a1c2e3517dc9bdfa2935bdee2d9703d15469880955e",
    "data/audio/c00001.wav": "8ecbc6e2826afb520915cb77ed5e48e496974cf8c8a5f03a14a12bf0d25166de",
    "data/audio/c00002.wav": "bdc553fe0669dc595a184041d5f39b0b9de423cd79c556b09d89e38fd3fa9068",
    "data/audio/c00003.wav": "31d33ea8de8a109d17d818b181a5b9e5bd32b48cdbca6292e958c318f24c648a",
    "data/audio/c00004.wav": "8f64240ac86a042a2f3410800b7f34c4650c30efcf12e3cce668563ecc9ac8b1",
    "data/audio/c00005.wav": "b88aed265b6a9b4e6557aab576f0b83c0bb231611e955136a59e88159a712b06",
    "data/audio/c00006.wav": "b98542c45230d413a3c14088b7831de4a61c091fea39e4852129bdcf1f16a367",
    "data/audio/c00007.wav": "95313b092e3b98d7c07c3cb44ac05d81bf2815845a1fb34bfe76dff500b84dfd",
    "data/audio/c00008.wav": "afae902f94928469e79af8fa56f4b459e73937ad8f1f6e496eb425684df00b30",
    "data/audio/c00009.wav": "0dd3d178034d6329389a8c358cb778a880d0fd364874abef8865a75e29181ab7",
    "data/audio/c00010.wav": "c0d0a02b0f682f89be540c3252cf6b235bab6aabc0d104081dc344cfd0e72efa",
    "data/audio/c00011.wav": "d877e78040385fcf1a15f90ed5da631fe897fca8780a08822b29175e8c15e303",
    "data/audio/c00012.wav": "2337fb9cf667d94169b4731b233cbcbb2727c3f4695540092d90467c961263d8",
    "data/audio/c00013.wav": "0ea67c5b6a9e845390571520377e130f6591785fda20feedf574e9d7332e3a01",
    "data/audio/c00014.wav": "24fb8d114e483751481eb3146a4ed94852a8f601aeaea231ff0d73eeac8ea464",
    "data/audio/c00015.wav": "0914ac596a476f7ce124761bdce4baef685c52490b778996931c5ca32bf99c8b",
    "data/audio/c00016.wav": "ef6546fd0ba5a2e3f845b5e237f9c1efc9d681c90971705f102272e2ca60f49b",
    "data/audio/c00017.wav": "1f05e96351a0fb7e94189e02dcca8001b6d47031c8e115f12e040d19d6f3120c",
    "data/audio/c00018.wav": "12c267b146bd3a512e0e272757ddbd686595aba39dbb971be00a4ba7a43a2798",
    "data/audio/c00019.wav": "91efe2592164e9d3f4e245c44b48f04446d860b51c75ee01d6de29037391f6af",
    "data/audio/c00020.wav": "97f526150b7315750da8410a36658178f02b69f1455735329fc3b387c3d82c16",
    "data/audio/c00021.wav": "8a05fbda21f7b1e818e857d433d5a5d78171945ed339129599afe2f1f3960b9e",
    "data/audio/c00022.wav": "6e235283b200a3db0fa1196c53caabdf813c7f1977c34cdd7b9db1108142e737",
    "data/audio/c00023.wav": "ed14f2e0de288d138dfa13bc41361cea375a3718533bdce52b402b69aedec0a9",
    "data/audio/c00024.wav": "3129858059e5ddd738e0b7b9c201a3099aab67ff685ccda43b781c39f8851a7e",
    "data/audio/c00025.wav": "10638e9b76d6c6608f8076062c31dde9f3b2ce9f3eac99b3565304007e6c3902",
    "data/audio/c00026.wav": "aea2e4fc1c405c81bd62981711f43657975ef054ae71aad7ffcc8af2a4b655ae",
    "data/audio/c00027.wav": "4edda366927b706822f252f4db72ef8dd75cecc4740106a3fe1d17a393ab593f",
    "data/audio/c00028.wav": "8556284406b41569017eace8023e4c51b3781b3f2baf385da10bef5d2fd3cac6",
    "data/audio/c00029.wav": "9352352c507d263631d88f4208e6961804d43831342da292a327325e3929ff9d",
    "data/audio/c00030.wav": "eddfe82d7248f09fe1d494eb78a255e3b0fe9685d9eab114b9346814d64fe5fa",
    "data/audio/c00031.wav": "d5c9764429d865566df756a250d5ac837ef19de567dcd823486123ce668a2447",
    "data/audio/c00032.wav": "7feb048caa841e8f974eddfeb2dcf4c703d52dcf64970fdd98be16838b3788ba",
    "data/audio/c00033.wav": "49d87ecac57fd8068cad27880a0eeb7a4ccd80c03593fddbbf3280e17ca4358f",
    "data/audio/c00034.wav": "627db04fa068dd1332ab77324449ec1afa18a01badaf28fba904544fc8acd103",
    "data/audio/c00035.wav": "727bf05ae8abad8ac565246c76345bb76ba81767488dac19c6d833b7f56d6a33",
    "data/audio/c00036.wav": "4dc9a7da4a5dd73f3e07e2c5df2d4abd8606e6ee50a85eda55b5c3687f903203",
    "data/audio/c00037.wav": "62ad519b94c021bfdc65587337a4fdc5e780a39b59c725a70c825550a7a28cf5",
    "data/audio/c00038.wav": "639ddcca80807c0a621e5c71739ac0fd74802975be020ee395d53ac968f04de0",
    "data/audio/c00039.wav": "d1f186b664900ea876de4655e79f1998a8049789d69c4972aaf22af4c6b3f8bf",
    "data/audio/c00040.wav": "b88fd98b996677bbcf5e8be86162f9e38d17e4a138b35445cb8964928cf842e5",
    "data/audio/c00041.wav": "a5b3397def75eb28abb81487aeb3aa629248befd1f524c0034045f35a2fd4498",
    "data/audio/c00042.wav": "ffbafbd08e5bfd2d166f383a2dba0b97e7bc295c0295f813212d02d8b86b013d",
    "data/audio/c00043.wav": "8b2f4af426a369793d1f77fafeed5a249a1a2d228199ad78001e3e75ef962815",
    "data/audio/c00044.wav": "888b8f7fc405aacb52212d2c28c201c6db56599743f2220e38b010e99a3468bc",
    "data/audio/c00045.wav": "ee46ca9021c6523f4559021fcb7ea41a44e410d9c57b5af3d88d049bca132b33",
    "data/audio/c00046.wav": "4301b836260e18873dedf7e904ae7662e91862bd10617c605ff8f66cfdf27730",
    "data/audio/c00047.wav": "965ce0599e4bde62eeeed0ab25915120ac160b81aadc0940eac342628334c5af",
    "data/audio/c00048.wav": "57dc8c7f7e3ea8cd5c6e792971ea69e15aca9d562ffd678160dc909d84c3295e",
    "data/audio/c00049.wav": "642c7e1c3717217af896901c7eccb1678309b3b717bee8367a50c2e6ee315226",
    "data/audio/c00050.wav": "5d9d67e1fb6a0df461d0d26c4600865e5a7912e0a3f7a3f6816c1fa8fa4ea1e6",
    "data/audio/c00051.wav": "9e1a3abab3d0252654f40ca22d5af46d9d284f91c222b31f791d13208fc3e008",
    "data/audio/c00052.wav": "8de55fcd101f05640dd4eb20e9248685210dbdf31e3a38c140b72fa19f7c3120",
    "data/audio/c00053.wav": "c23b1098f32284e7dbf2554d1734d59546057adc0ec920842e7fbb527ae1d467",
    "data/audio/c00054.wav": "613ab935cc433a149b69b40fe740b23b22877c6af08d03d7c355841114df0a0c",
    "data/audio/c00055.wav": "93c61a0c177198739d52d760484dc988cbd529d90f116a6a4906daaf7b0ba10a",
    "data/audio/c00056.wav": "81d170123b4368e5af3308b97721268825462b7b930c753b1a54dedc81de1e43",
    "data/audio/c00057.wav": "a46f15497cb9b64956752ebc66260313585000919a97bbe4e304053e6c3ecd9e",
    "data/audio/c00058.wav": "1d554c5daf7d80a55853b73770d94182160b622d32e2211fb57982954a8b18f2",
    "data/audio/c00059.wav": "35bb82569255b6348b59f06e9cef2d8e9f8f666bf290095a6f6f1a1e40c37507",
    "data/ground_truth.csv": "29ce0857ef81cdba523ae9fa32203b7bd0fd54b74ab00298b0b1b74961050f92",
    "data/manifest.csv": "76b868762038cfa6595ca5a06c96b73ce9e8e30019d15d362c93d478bf6e956b",
    "data/table.csv": "1bdd7840933c091863db4e776227d0412cc50dbe8b35b4076591293b8513b818",
    "models/churn.bin": "583b473f982926c7d9ece9ddf470a5e01ed64144cd04c1371bc4395af9a44891",
    "models/churn_hybrid.bin": "3c8c309a79387a5ada47ccdac82800a2c97df793f3263190cbdf6cba3be372ca",
    "models/fl.bin": "e8d6b406e5b6632ea96e2aca6cf2cd5a1f9734c2143a68827514d1c288dec0d2",
    "models/ser.bin": "815d43583a939978193a574babab6364b51b24372ebf8766e87ac8e4c99e80ed",
    "reports/assignments_hybrid.csv": "84a2ff1c8e815c25b3dc6203088847a6d738c79d026d5afd34898fcff055b2b0",
    "reports/assignments_late.csv": "773c2a6ba578c08ebc02b8f096834a6b70d97b0f8e414d2f8ccdb7a8cb44ca2a",
    "reports/assignments_none.csv": "55cd36633db87c0ac64203f163dc21dcb1a337db929e670edae7421545ea6259",
    "reports/report_hybrid.txt": "af4144c6e25a8b991305017b0cdd795d0e6303d8b3df10136e2a4a9134f6f145",
    "reports/report_late.txt": "22e2d537268e835a47ed251209e5ac59494601fade58ff9404e6bc90b3e75001",
    "reports/report_none.txt": "204a7663d89ab94eeb2ecf4b23afd9b52914aeec19fe30ed1d1a4c41aa06bce2",
}


def file_hashes(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def golden_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "config.txt"
    config.write_text(GOLDEN_CONFIG, encoding="utf-8")
    ws = root / "ws"
    base = ["--out", str(ws), "--config", str(config)]
    commands = [["gen"]] + [["train", m] for m in ("fl", "ser", "churn")]
    commands += [["evaluate", s] for s in pipeline.STRATEGIES]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert cli.main(command + base) == 0, command
    return ws


def test_workspace_bytes_match_golden(golden_workspace):
    hashes = file_hashes(golden_workspace)
    assert len(hashes) == 73
    assert hashes == GOLDEN_WORKSPACE_SHA256


def test_pipeline_and_cli_write_the_same_bytes(golden_workspace):
    cfg = pipeline.with_seed(pipeline.parse_config_text(GOLDEN_CONFIG), 7)
    result = pipeline.run_experiment(cfg)
    reports = golden_workspace / "reports"
    for strategy in pipeline.STRATEGIES:
        assert fusion.serialize_assignments(result.assignments[strategy]) == (
            reports / f"assignments_{strategy}.csv"
        ).read_bytes(), strategy
        assert metrics.serialize_report(result.reports[strategy]) == (
            reports / f"report_{strategy}.txt"
        ).read_text(encoding="utf-8"), strategy
