package serve

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// RunFrontends is the tail of both daemons' main (makalu-node service
// mode and makalu-gateway): bind handler's HTTP listener on httpAddr
// and start a line server on tcpAddr — each skipped when its address is
// empty — and only then serve HTTP, printing each bound address. A bind
// failure on either address is the error returned, with nothing left
// serving. Otherwise it blocks until SIGINT/SIGTERM and closes both.
func RunFrontends(httpAddr string, handler http.Handler, tcpAddr string, startTCP func(addr string) (*TCPServer, error)) error {
	var httpLn net.Listener
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		httpLn = ln
		defer ln.Close()
	}
	if tcpAddr != "" {
		tcpSrv, err := startTCP(tcpAddr)
		if err != nil {
			return err
		}
		defer tcpSrv.Close()
		fmt.Printf("serving TCP lookups on %s\n", tcpSrv.Addr())
	}
	if httpLn != nil {
		httpSrv := NewHTTPServer(httpLn.Addr().String(), handler)
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "http: %v\n", err)
			}
		}()
		defer httpSrv.Close()
		fmt.Printf("serving HTTP on %s\n", httpLn.Addr())
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("received %v, shutting down\n", <-sigs)
	return nil
}
