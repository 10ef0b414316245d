//! Guest-language semantics tests: every program runs under both memory
//! managers (CPython-style refcounting and the PyPy-style generational
//! collector) and must produce identical results.

use qoa_heap::GcConfig;
use qoa_model::CountingSink;
use qoa_vm::{HeapMode, Vm, VmConfig, VmStats};

fn run_both(src: &str) -> (Vm<CountingSink>, Vm<CountingSink>) {
    let rc_cfg = VmConfig { heap: HeapMode::Rc, max_steps: 50_000_000, ..VmConfig::default() };
    let gen_cfg = VmConfig {
        heap: HeapMode::Gen(GcConfig::with_nursery(64 << 10)),
        max_steps: 50_000_000,
        ..VmConfig::default()
    };
    let rc = qoa_vm::run_source(src, rc_cfg, CountingSink::new())
        .unwrap_or_else(|e| panic!("rc run failed: {e}\n{src}"));
    let gen = qoa_vm::run_source(src, gen_cfg, CountingSink::new())
        .unwrap_or_else(|e| panic!("gen run failed: {e}\n{src}"));
    (rc, gen)
}

fn check_int(src: &str, var: &str, expect: i64) {
    let (mut rc, mut gen) = run_both(src);
    assert_eq!(rc.global_int(var), Some(expect), "rc mode: {var} in\n{src}");
    assert_eq!(gen.global_int(var), Some(expect), "gen mode: {var} in\n{src}");
}

fn check_float(src: &str, var: &str, expect: f64) {
    let (mut rc, mut gen) = run_both(src);
    let a = rc.global_float(var).unwrap_or_else(|| panic!("missing {var}"));
    let b = gen.global_float(var).unwrap_or_else(|| panic!("missing {var}"));
    assert!((a - expect).abs() < 1e-9, "rc: {a} != {expect}");
    assert!((b - expect).abs() < 1e-9, "gen: {b} != {expect}");
}

fn check_str(src: &str, var: &str, expect: &str) {
    let (mut rc, mut gen) = run_both(src);
    assert_eq!(rc.global_str(var).as_deref(), Some(expect), "rc mode");
    assert_eq!(gen.global_str(var).as_deref(), Some(expect), "gen mode");
}

fn check_display(src: &str, var: &str, expect: &str) {
    let (mut rc, mut gen) = run_both(src);
    assert_eq!(rc.global_display(var).as_deref(), Some(expect), "rc mode");
    assert_eq!(gen.global_display(var).as_deref(), Some(expect), "gen mode");
}

// ---- arithmetic and numerics ------------------------------------------------

#[test]
fn integer_arithmetic() {
    check_int("x = 2 + 3 * 4 - 1\n", "x", 13);
    check_int("x = 17 // 5\n", "x", 3);
    check_int("x = 17 % 5\n", "x", 2);
    check_int("x = -17 // 5\n", "x", -4); // Python floor semantics
    check_int("x = -17 % 5\n", "x", 3);
    check_int("x = 2 ** 10\n", "x", 1024);
    check_int("x = -(5)\n", "x", -5);
}

#[test]
fn bit_operations() {
    check_int("x = 0xF0 & 0x3C\n", "x", 0x30);
    check_int("x = 0xF0 | 0x0F\n", "x", 0xFF);
    check_int("x = 0xFF ^ 0x0F\n", "x", 0xF0);
    check_int("x = 1 << 10\n", "x", 1024);
    check_int("x = 1024 >> 3\n", "x", 128);
    check_int("x = ~5\n", "x", -6);
}

#[test]
fn float_arithmetic() {
    check_float("x = 1.5 + 2.25\n", "x", 3.75);
    check_float("x = 10.0 / 4.0\n", "x", 2.5);
    check_float("x = 2 + 0.5\n", "x", 2.5); // int/float promotion
    check_float("x = 7.5 % 2.0\n", "x", 1.5);
    check_float("x = 2.0 ** 8\n", "x", 256.0);
}

#[test]
fn division_errors() {
    let cfg = VmConfig::default();
    let err = qoa_vm::run_source("x = 1 // 0\n", cfg, CountingSink::new())
        .err().expect("div by zero must fail");
    assert!(err.to_string().contains("ZeroDivisionError"), "{err}");
}

#[test]
fn overflow_is_detected() {
    let cfg = VmConfig::default();
    let err = qoa_vm::run_source(
        "x = 4611686018427387904\ny = x * 4\n",
        cfg,
        CountingSink::new(),
    )
    .err().expect("overflow must fail");
    assert!(err.to_string().contains("OverflowError"), "{err}");
}

// ---- comparisons and control flow ----------------------------------------------

#[test]
fn comparison_results() {
    check_display("x = 3 < 5\n", "x", "True");
    check_display("x = 3 > 5\n", "x", "False");
    check_display("x = 'abc' < 'abd'\n", "x", "True");
    check_display("x = [1, 2] == [1, 2]\n", "x", "True");
    check_display("x = (1, 2) < (1, 3)\n", "x", "True");
    check_display("x = 1 < 2 < 3\n", "x", "True");
    check_display("x = 1 < 2 > 3\n", "x", "False");
    check_display("x = 2 in [1, 2, 3]\n", "x", "True");
    check_display("x = 5 not in [1, 2, 3]\n", "x", "True");
    check_display("x = 'b' in 'abc'\n", "x", "True");
}

#[test]
fn short_circuit_evaluation() {
    // `or` must not evaluate the second operand when the first is truthy.
    check_int("def boom():\n    return 1 // 0\nx = 1 or boom()\n", "x", 1);
    check_int("def boom():\n    return 1 // 0\nx = 0 and boom()\n", "x", 0);
}

#[test]
fn if_elif_else() {
    let src = "
def grade(n):
    if n >= 90:
        return 4
    elif n >= 80:
        return 3
    elif n >= 70:
        return 2
    else:
        return 0

a = grade(95)
b = grade(85)
c = grade(75)
d = grade(10)
total = a * 1000 + b * 100 + c * 10 + d
";
    check_int(src, "total", 4320);
}

#[test]
fn while_with_break_continue() {
    let src = "
total = 0
i = 0
while True:
    i = i + 1
    if i > 100:
        break
    if i % 2 == 0:
        continue
    total = total + i
";
    check_int(src, "total", 2500); // sum of odd numbers 1..100
}

#[test]
fn nested_loops_and_breaks() {
    let src = "
count = 0
for i in range(10):
    for j in range(10):
        if j > i:
            break
        count = count + 1
";
    check_int(src, "count", 55);
}

// ---- data structures ---------------------------------------------------------------

#[test]
fn list_operations() {
    let src = "
xs = [1, 2, 3]
xs.append(4)
xs.extend([5, 6])
xs.insert(0, 0)
total = sum(xs)
n = len(xs)
first = xs[0]
last = xs[-1]
xs[2] = 20
mid = xs[2]
";
    check_int(src, "total", 21);
    check_int(src, "n", 7);
    check_int(src, "first", 0);
    check_int(src, "last", 6);
    check_int(src, "mid", 20);
}

#[test]
fn list_slicing_and_methods() {
    let src = "
xs = [5, 3, 8, 1, 9, 2]
ys = xs[1:4]
xs.sort()
smallest = xs[0]
largest = xs[-1]
zs = xs[:3]
sz = sum(zs)
idx = xs.index(8)
xs.reverse()
rev_first = xs[0]
";
    check_display(src, "ys", "[3, 8, 1]");
    check_int(src, "smallest", 1);
    check_int(src, "largest", 9);
    check_int(src, "sz", 6); // 1+2+3
    check_int(src, "idx", 4);
    check_int(src, "rev_first", 9);
}

#[test]
fn dict_operations() {
    let src = "
d = {'a': 1, 'b': 2}
d['c'] = 3
x = d['a'] + d['b'] + d['c']
has = 'b' in d
missing = d.get('zz', 42)
del d['a']
n = len(d)
ks = d.keys()
ks.sort()
";
    check_int(src, "x", 6);
    check_display(src, "has", "True");
    check_int(src, "missing", 42);
    check_int(src, "n", 2);
    check_display(src, "ks", "['b', 'c']");
}

/// Guest objects still live at the end of a run: under refcounting what
/// was never freed, under the collector what survives a full collection.
fn live_objects(vm: &mut Vm<CountingSink>) -> u64 {
    vm.minor_gc();
    vm.major_gc();
    let s = vm.stats();
    match s.rc.allocs {
        0 => s.allocations - s.gc.young_reclaimed - s.gc.old_reclaimed,
        allocs => allocs - s.rc.frees,
    }
}

#[test]
fn dict_removal_releases_the_stored_key() {
    // `del d[k]` and `d.pop(k)` on string and tuple keys built afresh at
    // each removal, so the stored key object is not the one looked up.
    let src = "
d = {}
for i in range(40):
    d['k' + str(i)] = i
    d[(i, 'x')] = i * 2
s = 0
for i in range(0, 40, 2):
    del d['k' + str(i)]
    s = s + d.pop((i, 'x'))
for i in range(1, 40, 4):
    s = s + d.pop('k' + str(i))
    del d[(i, 'x')]
n = len(d)
";
    let (mut rc, mut gen) = run_both(src);
    let observed = |vm: &mut Vm<CountingSink>| {
        (vm.global_int("s"), vm.global_int("n"), vm.stats().dict_probes, live_objects(vm))
    };
    assert_eq!(observed(&mut rc), (Some(950), Some(20), 833, 23), "rc heap");
    assert_eq!(observed(&mut gen), (Some(950), Some(20), 833, 23), "gen heap");
}

#[test]
fn dict_iteration_and_update() {
    let src = "
d = {}
for i in range(50):
    d[i] = i * i
total = 0
for k in d:
    total = total + d[k]
e = {'x': 1}
e.update({'y': 2})
n = len(e)
";
    check_int(src, "total", (0..50).map(|i| i * i).sum());
    check_int(src, "n", 2);
}

#[test]
fn tuples_and_unpacking() {
    check_int(
        "
def swap(p, q):
    return (q, p)
t = (1, 2, 3)
a, b, c = t
x, y = swap(3, 4)
s = a + b * 10 + c * 100 + x * 1000 + y * 10000
",
        "s",
        1 + 20 + 300 + 4000 + 30000,
    );
}

#[test]
fn tuple_swap_idiom() {
    check_int("a = 1\nb = 2\na, b = b, a\nx = a * 10 + b\n", "x", 21);
}

#[test]
fn strings() {
    let src = "
s = 'hello' + ' ' + 'world'
n = len(s)
up = s.upper()
parts = s.split(' ')
first = parts[0]
joined = '-'.join(parts)
found = s.find('world')
sub = s[0:5]
ch = s[4]
starts = s.startswith('hell')
";
    check_str(src, "s", "hello world");
    check_int(src, "n", 11);
    check_str(src, "up", "HELLO WORLD");
    check_str(src, "first", "hello");
    check_str(src, "joined", "hello-world");
    check_int(src, "found", 6);
    check_str(src, "sub", "hello");
    check_str(src, "ch", "o");
    check_display(src, "starts", "True");
}

#[test]
fn string_formatting() {
    check_str("x = 'v=%d' % 42\n", "x", "v=42");
    check_str("x = '%s-%d' % ('a', 7)\n", "x", "a-7");
    check_str("x = str(3.5)\n", "x", "3.5");
    check_str("x = 'ab' * 3\n", "x", "ababab");
}

// ---- functions ---------------------------------------------------------------------------

#[test]
fn functions_and_recursion() {
    let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
x = fib(15)
";
    check_int(src, "x", 610);
}

#[test]
fn default_arguments() {
    let src = "
def add(a, b=10, c=100):
    return a + b + c
x = add(1)
y = add(1, 2)
z = add(1, 2, 3)
s = x * 10000 + y * 100 + z
";
    check_int(src, "s", 111 * 10000 + 103 * 100 + 6);
}

#[test]
fn globals_from_functions() {
    let src = "
counter = 0
def bump():
    global counter
    counter = counter + 1
for i in range(5):
    bump()
";
    check_int(src, "counter", 5);
}

#[test]
fn nested_function_defs() {
    let src = "
def outer(n):
    def double(x):
        return x * 2
    return double(n) + 1
x = outer(20)
";
    check_int(src, "x", 41);
}

#[test]
fn first_class_functions() {
    let src = "
def apply(f, x):
    return f(x)
def square(v):
    return v * v
x = apply(square, 9)
";
    check_int(src, "x", 81);
}

// ---- classes ---------------------------------------------------------------------------------

#[test]
fn classes_and_instances() {
    let src = "
class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def dist2(self):
        return self.x * self.x + self.y * self.y

p = Point(3, 4)
d = p.dist2()
p.x = 6
d2 = p.dist2()
";
    check_int(src, "d", 25);
    check_int(src, "d2", 52);
}

#[test]
fn class_attributes_and_methods() {
    let src = "
class Counter:
    def __init__(self):
        self.n = 0
    def bump(self, k):
        self.n = self.n + k
        return self.n

c = Counter()
c.bump(5)
c.bump(7)
x = c.n
";
    check_int(src, "x", 12);
}

#[test]
fn inheritance() {
    let src = "
class Animal:
    def __init__(self, name):
        self.name = name
    def legs(self):
        return 4
    def describe(self):
        return self.legs() * 10

class Bird(Animal):
    def legs(self):
        return 2

a = Animal('cat')
b = Bird('crow')
x = a.describe() + b.describe()
";
    check_int(src, "x", 60);
}

#[test]
fn instances_in_containers() {
    let src = "
class Node:
    def __init__(self, v):
        self.v = v

nodes = []
for i in range(10):
    nodes.append(Node(i))
total = 0
for n in nodes:
    total = total + n.v
";
    check_int(src, "total", 45);
}

// ---- iteration -----------------------------------------------------------------------------------

#[test]
fn range_variants() {
    check_int("t = 0\nfor i in range(10):\n    t = t + i\n", "t", 45);
    check_int("t = 0\nfor i in range(2, 10):\n    t = t + i\n", "t", 44);
    check_int("t = 0\nfor i in range(0, 10, 3):\n    t = t + i\n", "t", 18);
    check_int("t = 0\nfor i in range(10, 0, -2):\n    t = t + i\n", "t", 30);
}

#[test]
fn iterate_strings_and_lists() {
    let src = "
count = 0
for ch in 'hello':
    if ch == 'l':
        count = count + 1
total = 0
for v in [10, 20, 30]:
    total = total + v
";
    check_int(src, "count", 2);
    check_int(src, "total", 60);
}

#[test]
fn for_loop_tuple_unpack() {
    let src = "
pairs = [(1, 10), (2, 20), (3, 30)]
total = 0
for a, b in pairs:
    total = total + a * b
";
    check_int(src, "total", 10 + 40 + 90);
}

#[test]
fn iterating_a_temporary_list_survives_a_minor_collection() {
    // `GetIter` pops the only reference to the list literal before it
    // allocates the iterator; a minor collection during that allocation
    // must not free the list.
    let src = "
t = 0
n = 0
while n < 3000:
    for x in [n + 1000, n + 2000, n + 3000]:
        t = t + x
    n += 1
";
    check_int(src, "t", 31_495_500);
}

#[test]
fn call_arguments_survive_minor_collections_at_the_smallest_nursery() {
    // Arguments move from the value stack into the callee's locals
    // through GC-visible scratch. At the 4 kB minimum nursery a minor
    // collection runs during most calls' frame allocation (hundreds over
    // the loop); a fresh list and boxed ints above the small-int cache
    // must survive it, and the defaulted `k` with them.
    let src = "
def f(a, b, k=2):
    return a[0] + b[k]
total = 0
n = 0
while n < 3000:
    total = total + f([n + 1000, n + 2000, n + 3000], [n + 7, n + 8, n + 9])
    n += 1
";
    let run = |heap| {
        let cfg = VmConfig { heap, max_steps: 50_000_000, ..VmConfig::default() };
        qoa_vm::run_source(src, cfg, CountingSink::new())
            .unwrap_or_else(|e| panic!("{heap:?} run failed: {e}"))
    };
    let mut rc = run(HeapMode::Rc);
    let mut gen = run(HeapMode::Gen(GcConfig::with_nursery(4096)));
    assert_eq!(rc.global_int("total"), Some(12_024_000));
    assert_eq!(gen.global_int("total"), rc.global_int("total"));
    let minor = gen.stats().gc.minor_collections;
    assert!(minor > 300, "only {minor} minor collections");
}

// ---- native library --------------------------------------------------------------------------------

#[test]
fn math_functions() {
    check_float("x = sqrt(16.0)\n", "x", 4.0);
    check_float("x = floor(3.7)\n", "x", 3.0);
    check_int("x = abs(-7)\n", "x", 7);
    check_int("x = min(4, 2, 8)\n", "x", 2);
    check_int("x = max([4, 2, 8])\n", "x", 8);
    check_int("x = ord('A')\n", "x", 65);
    check_str("x = chr(66)\n", "x", "B");
    check_int("x = int('123')\n", "x", 123);
    check_float("x = float('2.5')\n", "x", 2.5);
}

#[test]
fn deterministic_rng() {
    let src = "
rand_seed(42)
a = randint(0, 100)
b = randint(0, 100)
rand_seed(42)
c = randint(0, 100)
same = 0
if a == c:
    same = 1
";
    check_int(src, "same", 1);
}

#[test]
fn json_round_trip() {
    let src = "
data = {'name': 'qoa', 'vals': [1, 2, 3], 'ok': True, 'pi': 3.5}
text = json_dumps(data)
back = json_loads(text)
n = back['name']
s = sum(back['vals'])
ok = back['ok']
pi = back['pi']
";
    check_str(src, "n", "qoa");
    check_int(src, "s", 6);
    check_display(src, "ok", "True");
    check_float(src, "pi", 3.5);
}

#[test]
fn pickle_round_trip() {
    let src = "
data = [1, 'two', 3.5, [4, 5], {'k': 6}, None, True]
text = pickle_dumps(data)
back = pickle_loads(text)
a = back[0]
b = back[1]
c = back[2]
d = sum(back[3])
e = back[4]['k']
";
    check_int(src, "a", 1);
    check_str(src, "b", "two");
    check_float(src, "c", 3.5);
    check_int(src, "d", 9);
    check_int(src, "e", 6);
}

#[test]
fn regex_functions() {
    let src = "
hit = re_search('[0-9]+', 'abc123def')
miss = re_search('^[0-9]+$', 'abc123')
words = re_findall('[a-z]+', 'one 2 three 4 five')
n = len(words)
first = words[0]
";
    check_display(src, "hit", "True");
    check_display(src, "miss", "False");
    check_int(src, "n", 3);
    check_str(src, "first", "one");
}

#[test]
fn checksums_and_compression() {
    let src = "
c1 = crc32('hello world')
c2 = crc32('hello world')
c3 = crc32('hello worle')
stable = 0
if c1 == c2:
    stable = 1
diff = 0
if c1 != c3:
    diff = 1
h = md5('abc')
z = compress('aaaaaaaaaabbbbbbbbbbcd')
zn = len(z)
";
    check_int(src, "stable", 1);
    check_int(src, "diff", 1);
    let (mut rc, _) = run_both(src);
    assert!(rc.global_int("h").expect("md5 result") > 0);
    assert!(rc.global_int("zn").expect("compressed length") < 22);
}

#[test]
fn print_capture() {
    let (rc, gen) = run_both("print('hello', 42)\nprint([1, 2])\n");
    assert_eq!(rc.output(), &["hello 42".to_string(), "[1, 2]".to_string()]);
    assert_eq!(gen.output(), rc.output());
}

// ---- memory management correctness ------------------------------------------------------------------

#[test]
fn allocation_churn_is_reclaimed_rc() {
    let src = "
total = 0
for i in range(5000):
    xs = [i, i + 1, i + 2]
    total = total + xs[1]
";
    let (mut rc, _) = run_both(src);
    check_int(src, "total", (0..5000).map(|i| i + 1).sum());
    let stats: VmStats = rc.stats();
    // The refcount heap must have freed nearly everything it allocated.
    let live = stats.rc.allocs - stats.rc.frees;
    assert!(live < 200, "leaked {live} objects (of {})", stats.rc.allocs);
}

#[test]
fn generational_gc_collects_garbage() {
    let src = "
keep = []
for i in range(20000):
    tmp = [i, i, i]
    if i % 1000 == 0:
        keep.append(tmp)
n = len(keep)
";
    let gen_cfg = VmConfig {
        heap: HeapMode::Gen(GcConfig::with_nursery(32 << 10)),
        max_steps: 100_000_000,
        ..VmConfig::default()
    };
    let mut vm = qoa_vm::run_source(src, gen_cfg, CountingSink::new()).expect("runs");
    assert_eq!(vm.global_int("n"), Some(20));
    let stats = vm.stats();
    assert!(stats.gc.minor_collections > 10, "{:?}", stats.gc);
    assert!(stats.gc.young_reclaimed > 10_000, "{:?}", stats.gc);
    // Survivors are a small fraction of allocation.
    assert!(stats.gc.survival_rate() < 0.5, "rate {}", stats.gc.survival_rate());
}

#[test]
fn deep_structures_survive_gc() {
    let src = "
root = {}
cur = root
for i in range(200):
    nxt = {}
    cur['child'] = nxt
    cur['v'] = i
    cur = nxt
cur['v'] = 999
walker = root
depth = 0
while 'child' in walker:
    depth = depth + 1
    walker = walker['child']
leaf = walker['v']
";
    let gen_cfg = VmConfig {
        heap: HeapMode::Gen(GcConfig::with_nursery(16 << 10)),
        max_steps: 100_000_000,
        ..VmConfig::default()
    };
    let mut vm = qoa_vm::run_source(src, gen_cfg, CountingSink::new()).expect("runs");
    assert_eq!(vm.global_int("depth"), Some(200));
    assert_eq!(vm.global_int("leaf"), Some(999));
    assert!(vm.stats().gc.minor_collections > 0);
}

// ---- guest errors --------------------------------------------------------------------------------------

#[test]
fn guest_errors_are_reported() {
    let cfg = VmConfig::default();
    for (src, needle) in [
        ("x = undefined_name\n", "NameError"),
        ("x = [1][5]\n", "IndexError"),
        ("x = {}['k']\n", "KeyError"),
        ("x = 1 + 'a'\n", "TypeError"),
        ("def f(a):\n    return a\nx = f(1, 2)\n", "TypeError"),
        ("x = len(5)\n", "TypeError"),
    ] {
        let err = qoa_vm::run_source(src, cfg, CountingSink::new())
            .err().unwrap_or_else(|| panic!("{src} should fail"));
        assert!(err.to_string().contains(needle), "{src} gave {err}");
    }
}

#[test]
fn fuel_exhaustion_is_an_error() {
    let cfg = VmConfig { heap: HeapMode::Rc, max_steps: 1000, ..VmConfig::default() };
    let err = qoa_vm::run_source("while True:\n    pass\n", cfg, CountingSink::new())
        .err().expect("infinite loop must exhaust fuel");
    assert!(err.to_string().contains("fuel"), "{err}");
}
