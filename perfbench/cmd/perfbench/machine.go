package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// machineContext lists what a result depends on besides the code:
// core count, GOMAXPROCS, toolchain, CPU model, the commit (or, in a
// checkout without git metadata, a digest of the Go sources), and for
// the service the data dir's filesystem and the HTTP path.
func machineContext(c config) [][2]string {
	kv := [][2]string{
		{"workload", c.workload},
		{"seed", strconv.FormatInt(c.seed, 10)},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"commit", c.digest},
	}
	if c.workload == "service-jobs" {
		kv = append(kv,
			[2]string{"data_dir_fs", fsType(workDir)},
			[2]string{"http", "loopback (127.0.0.1), 2 closed-loop clients"})
	}
	return kv
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is "git-<HEAD>" when the checkout has git metadata, else
// "src-<digest>" over every .go and go.mod file under the current
// directory.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return "git-" + strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type 0x%x", st.Type)
}
